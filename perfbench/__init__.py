"""Benchmark of the PArADISE processor (see ``perfbench/README.md``)."""
