"""Benchmark of tierank's set-up, query path and command line; see README.md."""
