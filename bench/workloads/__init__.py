"""The benchmark's workloads.  Each module exposes SLOTS (one round of
requests, fixed sizes), WARMUP (small instances of every request kind) and
requests(seed, slots) -> list[Request]; the cli workload's requests also
take the directory where it writes its descriptor files."""

NAMES = ("hulls", "kernels", "recovery", "cli")
