"""Train / validation / test splitting strategies.

The paper's data transformer performs "a train-validation-test split using
different strategies like random and community-based" (§IV-A).  Both are
implemented here over node index arrays.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np
from scipy.sparse import csgraph
from scipy import sparse as sp

from repro.exceptions import DatasetError

__all__ = ["random_split", "community_split", "split_masks", "SplitFractions"]


class SplitFractions:
    """Fractions of labelled nodes assigned to train / valid / test."""

    def __init__(self, train: float = 0.6, valid: float = 0.2, test: float = 0.2) -> None:
        total = train + valid + test
        if not np.isclose(total, 1.0):
            raise DatasetError(f"split fractions must sum to 1.0, got {total}")
        if min(train, valid, test) < 0:
            raise DatasetError("split fractions must be non-negative")
        self.train = train
        self.valid = valid
        self.test = test

    def counts(self, n: int) -> Tuple[int, int, int]:
        n_train = int(round(n * self.train))
        n_valid = int(round(n * self.valid))
        n_train = min(n_train, n)
        n_valid = min(n_valid, n - n_train)
        n_test = n - n_train - n_valid
        return n_train, n_valid, n_test


def random_split(candidate_nodes: np.ndarray,
                 seed: int = 0) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Uniformly random split of ``candidate_nodes`` at the default
    :class:`SplitFractions`."""
    candidates = np.asarray(candidate_nodes, dtype=np.int64)
    rng = np.random.default_rng(seed)
    permuted = rng.permutation(candidates)
    n_train, n_valid, _ = SplitFractions().counts(permuted.shape[0])
    return (permuted[:n_train],
            permuted[n_train:n_train + n_valid],
            permuted[n_train + n_valid:])


def community_split(candidate_nodes: np.ndarray,
                    edge_index: np.ndarray,
                    num_nodes: int,
                    fractions: Optional[SplitFractions] = None,
                    seed: int = 0) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Community-based split.

    Nodes are grouped by the connected component they belong to (treating the
    graph as undirected) and whole communities are assigned to splits until
    the requested fractions are met.  This keeps communities intact, which is
    the property the paper's community-based strategy is after.
    """
    fractions = fractions or SplitFractions()
    candidates = np.asarray(candidate_nodes, dtype=np.int64)
    if candidates.size == 0:
        empty = np.asarray([], dtype=np.int64)
        return empty, empty.copy(), empty.copy()
    edge_index = np.asarray(edge_index, dtype=np.int64).reshape(2, -1)
    adjacency = sp.coo_matrix(
        (np.ones(edge_index.shape[1]), (edge_index[0], edge_index[1])),
        shape=(num_nodes, num_nodes))
    _, labels = csgraph.connected_components(adjacency, directed=False)
    communities: Dict[int, list] = {}
    for node in candidates:
        communities.setdefault(int(labels[node]), []).append(int(node))
    rng = np.random.default_rng(seed)
    community_ids = list(communities)
    rng.shuffle(community_ids)
    n_train, n_valid, _ = fractions.counts(candidates.shape[0])
    train, valid, test = [], [], []
    for community_id in community_ids:
        members = communities[community_id]
        if len(train) < n_train:
            train.extend(members)
        elif len(valid) < n_valid:
            valid.extend(members)
        else:
            test.extend(members)
    # Guarantee non-empty valid/test when possible by borrowing from train.
    if not test and len(train) > 2:
        test = [train.pop()]
    if not valid and len(train) > 2:
        valid = [train.pop()]
    return (np.asarray(train, dtype=np.int64),
            np.asarray(valid, dtype=np.int64),
            np.asarray(test, dtype=np.int64))


def split_masks(num_nodes: int, train_idx: np.ndarray, valid_idx: np.ndarray,
                test_idx: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Convert index arrays into boolean masks of length ``num_nodes``."""
    def mask(indices: np.ndarray) -> np.ndarray:
        out = np.zeros(num_nodes, dtype=bool)
        out[np.asarray(indices, dtype=np.int64)] = True
        return out
    train_mask, valid_mask, test_mask = mask(train_idx), mask(valid_idx), mask(test_idx)
    if (train_mask & valid_mask).any() or (train_mask & test_mask).any() or \
            (valid_mask & test_mask).any():
        raise DatasetError("splits overlap")
    return train_mask, valid_mask, test_mask
