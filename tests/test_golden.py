"""Golden containers: SHA-256 digests of `encode_parallel` output.

The round-trip tests pass on any decodable bytes, and the benchmark oracle
replays the same `Encoder`, so neither pins the container format.  These
digests do: they were recorded from the coder as it stood, and any change to
byte output, carry propagation, termination or index coding that moves a
single container byte fails here.  Inputs are seeded and use integer draws
only, so they are the same on every platform.
"""

import hashlib
import random

import pytest

from pecstream.pipeline import encode_parallel
from pecstream.rangecoder import BinaryModel, CdfModel

MODES = ("uni", "fb", "fr")
CODECS = ("i32", "rtc", "bic", "gamma")
STREAMS = (1, 2, 64, 1024)


def mixed_bytes(seed: int, total: int) -> bytes:
    """Blocks of uniform, vowel-like and two-letter bytes."""
    rnd = random.Random(seed)
    out = bytearray()
    while len(out) < total:
        block = rnd.randrange(50, 600)
        kind = rnd.randrange(3)
        if kind == 0:
            out.extend(rnd.randrange(256) for _ in range(block))
        elif kind == 1:
            out.extend(rnd.choice(b"aeiou \n") for _ in range(block))
        else:
            out.extend(rnd.choice(b"xy") for _ in range(block))
    return bytes(out[:total])


def bernoulli_bits(seed: int, count: int, p_one_16: int) -> bytes:
    """Bits that are 1 with probability p_one_16 / 65536."""
    rnd = random.Random(seed)
    return bytes(rnd.getrandbits(16) < p_one_16 for _ in range(count))


def _inputs():
    data = mixed_bytes(4242, 16384)
    counts = [0] * 256
    for b in data:
        counts[b] += 1
    bits = bernoulli_bits(4343, 32768, 6554)
    return {
        "order0": (data, CdfModel.from_counts(counts)),
        "bernoulli": (bits, BinaryModel(65536 - 6554)),
    }


INPUTS = _inputs()

GOLDEN = {
    "order0-uni-i32-1":
        "6975d3b178cf6a78dab86f62871ff462a32550b6325b29b5235c7f251d12e7c4",
    "order0-uni-i32-2":
        "054b798a56a54222fa7989a073a08dca8688c269ea24ab438f1749a5c52c5fb3",
    "order0-uni-i32-64":
        "99e838f72a61f41a52c8f0947915233e153291bf7ac28a7584218758dd9f34ad",
    "order0-uni-i32-1024":
        "cd55fa574e4ba1250556a43ea8df08d4207e20e7e329743cc313661880742e15",
    "order0-uni-rtc-1":
        "710347eff3346063829e9a1e209cb6dcece3a671f6849eb60a70198997455fd8",
    "order0-uni-rtc-2":
        "15f5778e3ae863b9865cc4eede89e8dd4361d528f04c482dc82f0703f0ba438c",
    "order0-uni-rtc-64":
        "b4813ddd4c4f73a3c57e7272de98fb6e5ef539caa0e66732054aea0fa846cade",
    "order0-uni-rtc-1024":
        "98d0bd388d21af8d1a17e561d9d25210ee9a280561e068975186030b64a8ac1d",
    "order0-uni-bic-1":
        "977079f0a021199302df6bc5a8690e2488fbe3a64908cfd189c74e46b71b749f",
    "order0-uni-bic-2":
        "8fb49b2d66cd8eff3eb0ab186a15b62fab0acc6a2321421c084bf32e4469fd14",
    "order0-uni-bic-64":
        "76067d584928136adf31af033f480e588a4ffcbd2c35979d5060cde873c54967",
    "order0-uni-bic-1024":
        "45bce1c15178c97f17e33dd2d3a94a6863d747af63c6d3587c502597ae9e80f2",
    "order0-uni-gamma-1":
        "03df687af3a47a14eb58d217d236e1fe073a8f2d6231b7a965f485db8a03e75e",
    "order0-uni-gamma-2":
        "00960993fea55e80c8a328de6e12510ddaab885647d8efcd9eb3facbb44cc176",
    "order0-uni-gamma-64":
        "c97f56c7e7dc144341852c941442713269edd3e7a3121631bee227271d6bcbd7",
    "order0-uni-gamma-1024":
        "991c18c887cb06116b113154c074adbd575fbf34fa37227b1853c396c06f74a2",
    "order0-fb-i32-2":
        "3ace105fe274fac1026ea25a9f47c30c2907fe905f68afb8463fbec9f79b283c",
    "order0-fb-i32-64":
        "d02128a7124955aaa28506729e23669486facbd394d545121f3d52cfcea7a235",
    "order0-fb-i32-1024":
        "3a9a8cef6223069d7beeef999060228d4c3845948bbf376e678657b2162c0190",
    "order0-fb-rtc-2":
        "24a3dfb98af844cba01ef01e37447b91a4c048898e8152aae3dc76e14dd376aa",
    "order0-fb-rtc-64":
        "7af80aa750b08e3e3bd69bafaadf1775a7d98b26da3bdb5a5b75a870572b9fba",
    "order0-fb-rtc-1024":
        "dc5ead3c19283184301aab8b8c03192b0dfeaa642b834b68cb5c281e8737cff8",
    "order0-fb-bic-2":
        "bd0d1a4955eec8b05ad86ab3fd689ff9b8846f91e73d23ad121b7e803ef7073c",
    "order0-fb-bic-64":
        "51f89ac5371aca8792537c5235eb2cd8685ec2c80617bcf211c67bad511abd04",
    "order0-fb-bic-1024":
        "a43205e9921d58a047a9cbca7ddb9ac6062d7ecaa57e6849c8df171a92d9bb0a",
    "order0-fb-gamma-2":
        "c3368f1b443187dde6fe8e5771275e6db84f80317cdfebd0a542a475c8f6c587",
    "order0-fb-gamma-64":
        "e199707f21a57c3d72acab191ef4f601ef220d972332e85213a5565194ce9f21",
    "order0-fb-gamma-1024":
        "1658463102751c41b55ab9f9090d0f6ba35974836b1ff5ae5e9ae447a447a3ab",
    "order0-fr-i32-2":
        "f2819bc19459b29a3e4d0451f09cc014c323d1295d646d5c055e02e0e9b61475",
    "order0-fr-i32-64":
        "4ea49c667317a65b21a574b509a6bcf7948dd825c76faebc0da27ea1014eb04c",
    "order0-fr-i32-1024":
        "0d3096522146c141686f5d6a882871c1af460b67332158fd294a9d0dd9186b83",
    "order0-fr-rtc-2":
        "9ccbcbf57a7b6ba7853fdde702f48d5124d42127e02082219259a3ba890647ba",
    "order0-fr-rtc-64":
        "20a806087b3ee371bfb01d62fa6ebb96953236cc4a2a0146a509926ac6cd3c39",
    "order0-fr-rtc-1024":
        "b568cb588b6b3833a6c54905458861054fdbcaf749998cd8f9c2e98bdabf1cfd",
    "order0-fr-bic-2":
        "c5aa05ddf54f6e311824b5c44319330f35ca61c43346df3423ac0d40618ef2eb",
    "order0-fr-bic-64":
        "9cd800616451baf33503130e6d2f6de29fb5a335c431b2ab2abe02e4a0e048d1",
    "order0-fr-bic-1024":
        "ccb23cb11d81423b79b024696ff699c389e1fb045c16b2ac3bf165ddfec35b90",
    "order0-fr-gamma-2":
        "b4feb5d43adf09337778fc05fefcb74c977f1abf1aa790f4d1380ad627ecae9e",
    "order0-fr-gamma-64":
        "f72b1f11e72cd153b337607f9dfa5227bca698637f596afe5ca4fdd786b63b57",
    "order0-fr-gamma-1024":
        "4e73147150ae7f955e6030da5f2ab97d6cda99682cad0d8cdd1b0f9edc9d7bab",
    "bernoulli-uni-i32-1":
        "a066755566aed8b12db8748cfff31e8402ebdffeb2971034172b8c60a5a9b8f3",
    "bernoulli-uni-i32-2":
        "d48ad66ed8aa2abb40652ff787f7bd6e1c313a155d4351af149e0b0385cc5cde",
    "bernoulli-uni-i32-64":
        "fa4f38cc2dfeafe7138e4e75565523220a7d8525ecdb92a8276308b9fc7a773b",
    "bernoulli-uni-i32-1024":
        "29e2349012c6046d5035fef53c4be5ed91aa0a6f0187846d0d89ede7da734885",
    "bernoulli-uni-rtc-1":
        "aa278a3ff385302c6fc73ce5b02943f2dd88f3cad017390485c8860e002ee295",
    "bernoulli-uni-rtc-2":
        "82fc9875b977f614f41e52daa6a705b17a368a4316e2de373970e84d79f94197",
    "bernoulli-uni-rtc-64":
        "7e63d72bd19ce8442ba9ebe342913daec2beb6ded368af936cf7c9d31db91ebb",
    "bernoulli-uni-rtc-1024":
        "06dd59d28345252575e212d1f128493cd0d7bc49f52601976740570fa799c4a0",
    "bernoulli-uni-bic-1":
        "0a6f5bfa5e58407650d40420109270509df9d3270e38c36a7bb0c91d5379dd79",
    "bernoulli-uni-bic-2":
        "4e18bf7b39361b22f6c573eed79c995eb6eb488f2bbea4563adf4a4e91425232",
    "bernoulli-uni-bic-64":
        "aee266bc12a65b5b56761125526f2952df0ffb7a7d5af9a1fc9496459650f927",
    "bernoulli-uni-bic-1024":
        "beace339721fc6f5e3b6497e846ee455a64559aaab3e3174371b5cc86560693c",
    "bernoulli-uni-gamma-1":
        "851e6b55c082e18154ac666cdf1f66309dca3a7e9b63ad4f9f34b99b190bdbcc",
    "bernoulli-uni-gamma-2":
        "36f1536a91bb677d7a4871cba02eb7cb19c176b2123d854d91c1d61c95b82ccf",
    "bernoulli-uni-gamma-64":
        "c218d979d36becc2b6e85cfac13db6513d012cc64240f23c251a14fcd27cd308",
    "bernoulli-uni-gamma-1024":
        "f99e9e5624ee40b7a455db616a4482624687f250d862ab83b3f926259bf84d75",
    "bernoulli-fb-i32-2":
        "c2074797786b67ceb20a95024c9e5bd052c04460818c7c47003b3a1f187edd60",
    "bernoulli-fb-i32-64":
        "e901d9d21873f45224d4e3694eaf96eaff804f249e0a3a8ea7407e06ed982e6a",
    "bernoulli-fb-i32-1024":
        "9668d3ba9211dfd113ba7f7c407d65d12d8c2bd05dadc30a17b3d6d832d20c33",
    "bernoulli-fb-rtc-2":
        "aa627c6c717d4144f3a8dbb0597e7c5c23f6e137d32db61ea5209be9f22d8bdc",
    "bernoulli-fb-rtc-64":
        "94118df4059506ec0886d60ba08135837ce6944aa20a781d7973e0be64220edf",
    "bernoulli-fb-rtc-1024":
        "ffce15e3f52f133135e82648d637ac65d2b548eebe05de6dfcb52313ac16dda2",
    "bernoulli-fb-bic-2":
        "4d55a0cc64b8491c5bf0e2dc69461a3e6191de86261ed180ffc183cdf7c17176",
    "bernoulli-fb-bic-64":
        "f593f02dd07fed41a37d29b59c08d2df6d941ca1e69d7f3ff3729a7fec28da41",
    "bernoulli-fb-bic-1024":
        "e6db4f073a4ad99fdbc3e18879ca8cc4d3b811e13297fee3507f2774e5c30952",
    "bernoulli-fb-gamma-2":
        "d691264f2333ef222df3f8a297042f73d6786aad35e2b95cdffd30826ebcd899",
    "bernoulli-fb-gamma-64":
        "45d1d31af2299562e9b25337036a39861b963079d817d20152a49285f202de64",
    "bernoulli-fb-gamma-1024":
        "5b1474df1be73ed8cc7232dae2865f41490966532149a2d59ba77b00f50c7c0d",
    "bernoulli-fr-i32-2":
        "626885b314cbd52f00d41894060613659a9fb6194aa9298901d368b0c73e9b43",
    "bernoulli-fr-i32-64":
        "59d4aecb208cf69546c102566fee2041b8b83e76e5697982d2f37b7220ab3ac2",
    "bernoulli-fr-i32-1024":
        "43e838b96051d15e727690e9159310a6735b8d348fda828f19e730e2ea4e8056",
    "bernoulli-fr-rtc-2":
        "209c5e0cf7ba2470d294745a4471a4a396869778770256e9417119190f87ca50",
    "bernoulli-fr-rtc-64":
        "2964b0dcc0e9fc11794dfd4bde3da038c3b9bcf1ef061732fa3b86116d38c6a8",
    "bernoulli-fr-rtc-1024":
        "4880abdb4c52485f444be517bd0dd5e875deb7b1b59b0a01f10c9e33d3c21313",
    "bernoulli-fr-bic-2":
        "9cfc2b1e89df62e7878e045c41946e3b1d1d2acfd0b43086106fdfaa26bf09a2",
    "bernoulli-fr-bic-64":
        "d56dbb9453f592af337b6f2ca85aaf99936936f6b42b6127faa2af6662507d75",
    "bernoulli-fr-bic-1024":
        "3fcd82a65fdd65839c5fbddeb0fda5252b2eec13dc27c12ed3762a671de9082b",
    "bernoulli-fr-gamma-2":
        "d607559bc9d97bfa2a186d5ce3ccf1c337982360e3559f0cf7131b8b14d452b9",
    "bernoulli-fr-gamma-64":
        "f7bd50c8716ea64042ba4b7de1fd1499ca119db4c6502f59280d00c22659a047",
    "bernoulli-fr-gamma-1024":
        "332663901353ff7f3cf92381c56dfe5f35ef9fe989969e345979ae6993003aa9",
}


def _cases():
    for model in INPUTS:
        for mode in MODES:
            for codec in CODECS:
                for n in STREAMS:
                    if n == 1 and mode != "uni":
                        continue
                    yield f"{model}-{mode}-{codec}-{n}"


@pytest.mark.parametrize("case", list(_cases()))
def test_container_digest(case):
    model_name, mode, codec, n = case.split("-")
    symbols, model = INPUTS[model_name]
    blob = encode_parallel(symbols, model, int(n), mode, codec)
    assert hashlib.sha256(blob).hexdigest() == GOLDEN[case]
