"""Request-stream benchmark for the VCO pipeline (see README.md)."""
