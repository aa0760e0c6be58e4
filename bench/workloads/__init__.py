"""The benchmark's workloads, one module each."""
