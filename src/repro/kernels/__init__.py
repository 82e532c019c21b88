"""Hot-path kernels: batched numpy forms of the simulator's inner loops.

* :mod:`repro.kernels.sample_fold` -- the ksampled sample fold;
* :mod:`repro.kernels.tlb_lru` -- set-associative LRU TLB lookups.

Each loop has exactly one implementation at runtime.  The per-element
Python loops these kernels replaced live on in
``tests/kernel_oracles.py`` as test oracles: the differential suites
run both and assert bit-identical state, on randomized streams and on
full end-to-end runs.
"""
