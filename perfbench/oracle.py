"""Independent owner oracle for million-node Cycloid lookups.

The kernel judges its own ``success`` against ``_owners``, a shortcut
that ranks only the two occupied cycles bracketing the key.  This
oracle shares none of that code: it scans *every* live identifier for
the smallest cubical circular distance to the key, then ranks the
survivors by the paper's full §3.1 closeness tuple in plain Python.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np


def closeness(key: int, node: int, dimension: int) -> Tuple[int, int, int, int]:
    """§3.1 closeness of linear id ``node`` to linear key ``key``:
    (cubical circular distance, cyclic circular distance, successor
    bias, clockwise distance); smaller is closer, and the clockwise
    component makes the order strict."""
    d = dimension
    modulus = 1 << d
    space = d << d
    cube = (node // d - key // d) % modulus
    cyclic = (node % d - key % d) % d
    clockwise = (node - key) % space
    return (min(cube, modulus - cube), min(cyclic, d - cyclic),
            int(clockwise > space // 2), clockwise)


def brute_force_owners(lin: np.ndarray, dimension: int, keys: np.ndarray) -> np.ndarray:
    """Index into ``lin`` (all live linear ids) of each key's owner."""
    d = dimension
    modulus = 1 << d
    node_cube = np.asarray(lin, dtype=np.int64) // d
    owners = np.empty(len(keys), dtype=np.int64)
    for row, key in enumerate(int(k) for k in keys):
        cube = (node_cube - key // d) % modulus
        cube = np.minimum(cube, modulus - cube)
        nearest = np.flatnonzero(cube == cube.min()).tolist()
        owners[row] = min(nearest,
                          key=lambda i: closeness(key, int(lin[i]), d))
    return owners
