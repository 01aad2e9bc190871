"""Exact computation in lamplighter-type groups Z_n wr Z^k.

Construct and validate automorphisms, compute Reidemeister numbers with
replayable certificates, classify which (n, k) force infinitely many
twisted-conjugacy classes, and cross-check everything on finite quotients
by brute force.

The package re-exports nothing: each name is reached through the module
that defines it, one of `group`, `matrix`, `modular`, `automorphism`,
`reidemeister`, `fileformat`, `finite` (the only one that loads numpy) and
`cli`.
"""
