"""Seeded end-to-end and per-layer benchmark for pecstream (see README.md)."""
