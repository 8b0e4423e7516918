"""Reference implementations the tests (and the loop-vs-batched benchmarks)
pin the optimised program against: the runtime passes, the seed star-LP and
bound loops, and the legacy format-1 archive writer."""
