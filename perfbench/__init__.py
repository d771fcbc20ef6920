"""End-to-end and per-layer benchmark for polaris; see README.md."""
