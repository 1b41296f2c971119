"""Solution-family analysis: ratio-spectrum partitions and joint block
diagonalization.

When the parameter space of a prescribed pair has dimension beyond the
trivial scaling family, the ratio S_tilde S^{-1} of two nonsingular members
carries a (mu, mu*) paired spectrum whose multiplicity partition bounds how
far the coefficient matrices can be simultaneously split into independent
subsystems by one congruence transformation.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (GeomMultViolation, NotJBDiagonalizable, SingularInput,
                     StructureViolation)
from .forward import _coincide
from .numerics import (NORM_FLOOR, OFFBLOCK_RTOL, RANK_RTOL, SINGULAR_RTOL,
                       STRUCTURE_RTOL, ZETA_CLUSTER_RTOL, as_matrix, dense_eig,
                       fnorm, invert, sv_ratio)
from .paramspace import _jordan_blocks
from .spectral import coefficients_from_pair


@dataclass
class ZetaPartition:
    """Multiplicity partition of the paired ratio spectrum.

    parts[i] is the shared multiplicity of the i-th (mu, mu*) pair;
    pair_classes[i] is "distinct" when mu != mu* and "self" when the pair
    collapses (which forces an even total multiplicity).  values[i] holds a
    representative mu.
    """

    parts: list
    pair_classes: list
    values: list

    @property
    def cardinality(self):
        return len(self.parts)


def _cluster(values, tol):
    """Single-linkage clusters of complex values at relative tolerance."""
    items = sorted(range(len(values)), key=lambda i: (values[i].real, values[i].imag))
    clusters = []
    for idx in items:
        placed = False
        for cl in clusters:
            if any(abs(values[idx] - values[j]) <= tol * max(1.0, abs(values[j]))
                   for j in cl):
                cl.append(idx)
                placed = True
                break
        if not placed:
            clusters.append([idx])
    return clusters


def zeta_partition(S, S_tilde, cls):
    """Partition of n from the eigenvalues of S_tilde S^{-1}.

    Eigenvalues are clustered at relative tolerance ZETA_CLUSTER_RTOL and
    grouped into (mu, mu*) pairs of equal multiplicity; a self-paired mu
    (always, for star = T; real mu for star = H) must have even
    multiplicity.  Violations raise StructureViolation as a numerical red
    flag.
    """
    S = as_matrix(S, "S")
    S_tilde = as_matrix(S_tilde, "S_tilde")
    if S.shape != S_tilde.shape or S.shape[0] != S.shape[1]:
        raise SingularInput("S and S_tilde must be square of equal size")
    if sv_ratio(S) <= SINGULAR_RTOL or sv_ratio(S_tilde) <= SINGULAR_RTOL:
        raise SingularInput("S and S_tilde must be nonsingular")
    ratio = S_tilde @ invert(S)
    w, _ = dense_eig(ratio)
    clusters = _cluster(list(w), ZETA_CLUSTER_RTOL)
    reps = [np.mean([w[i] for i in cl]) for cl in clusters]
    sizes = [len(cl) for cl in clusters]
    consumed = [False] * len(clusters)
    parts, pair_classes, values = [], [], []
    for a in range(len(clusters)):
        if consumed[a]:
            continue
        consumed[a] = True
        mu = reps[a]
        mu_star = cls.star_scalar(mu)
        if abs(mu - mu_star) <= ZETA_CLUSTER_RTOL * max(1.0, abs(mu)):
            if sizes[a] % 2 != 0:
                raise StructureViolation(
                    f"self-paired ratio eigenvalue {mu:.6g} has odd "
                    f"multiplicity {sizes[a]}")
            parts.append(sizes[a] // 2)
            pair_classes.append("self")
            values.append(mu)
            continue
        partner = None
        for b in range(a + 1, len(clusters)):
            if not consumed[b] and abs(reps[b] - mu_star) <= \
                    ZETA_CLUSTER_RTOL * max(1.0, abs(mu_star)):
                partner = b
                break
        if partner is None:
            raise StructureViolation(
                f"ratio eigenvalue {mu:.6g} has no partner {mu_star:.6g}")
        if sizes[partner] != sizes[a]:
            raise StructureViolation(
                f"paired ratio eigenvalues {mu:.6g}, {mu_star:.6g} have "
                f"multiplicities {sizes[a]} != {sizes[partner]}")
        consumed[partner] = True
        parts.append(sizes[a])
        pair_classes.append("distinct")
        values.append(mu)
    return ZetaPartition(parts, pair_classes, values)


def _offblock_mass(M, sizes):
    """Relative Frobenius mass outside the given diagonal block layout."""
    mask = np.ones_like(M, dtype=bool)
    off = 0
    for s in sizes:
        mask[off:off + s, off:off + s] = False
        off += s
    return float(np.linalg.norm(M[mask]) / max(fnorm(M), NORM_FLOOR))


def joint_block_diagonalize(X, J, S, S_tilde, S_hat, cls):
    """Congruence K splitting every system built over (X, J) jointly.

    Computes the ratio partition of (S, S_tilde), eigen-decomposes
    A1_tilde^{-*} A1* grouped by that partition, and returns (K, Pi,
    blocks): K*(coefficients from S_hat)K is block diagonal with the block
    sizes in blocks, Pi is an index permutation grouping the Jordan blocks
    of J conformally, and the same K works for every nonsingular parameter
    choice.  Raises NotJBDiagonalizable when eigenvalue clustering is
    ambiguous at ZETA_CLUSTER_RTOL.
    """
    X = as_matrix(X, "X")
    J = as_matrix(J, "J")
    jordan = _jordan_blocks(J, tol=STRUCTURE_RTOL)
    if jordan is None:
        raise GeomMultViolation("J is not in Jordan canonical form")
    starts, sizes, values = jordan
    shared = np.argwhere(np.triu(_coincide(values, values), 1))
    if shared.size:
        raise GeomMultViolation(
            f"eigenvalue {values[shared[0, 0]]:.6g} has geometric "
            "multiplicity greater than one")
    zeta = zeta_partition(S, S_tilde, cls)
    sys_S = coefficients_from_pair(X, J, S, cls)
    sys_St = coefficients_from_pair(X, J, S_tilde, cls)
    F = cls.star_of(invert(sys_St.A1)) @ cls.star_of(sys_S.A1)
    w, V = dense_eig(F)

    # Assign eigenvalues of F to zeta classes by value: class i matches
    # mu_i or its star partner.
    owners = [None] * len(w)
    for ci, mu in enumerate(zeta.values):
        cands = {mu, cls.star_scalar(mu)}
        for i, lam in enumerate(w):
            if any(abs(lam - c) <= ZETA_CLUSTER_RTOL * max(1.0, abs(c)) * 10 for c in cands):
                if owners[i] is not None and owners[i] != ci:
                    raise NotJBDiagonalizable(
                        f"eigenvalue {lam:.6g} matches two ratio classes")
                owners[i] = ci
    if any(o is None for o in owners):
        raise NotJBDiagonalizable(
            "an eigenvalue of A1_tilde^{-*} A1* matches no ratio class")
    order = []
    blocks = []
    for ci in range(zeta.cardinality):
        members = [i for i, o in enumerate(owners) if o == ci]
        if len(members) != zeta.parts[ci]:
            raise NotJBDiagonalizable(
                f"ratio class {zeta.values[ci]:.6g} expects multiplicity "
                f"{zeta.parts[ci]}, found {len(members)}")
        order.extend(members)
        blocks.append(len(members))
    K = V[:, order]
    if sv_ratio(K) <= RANK_RTOL:
        raise NotJBDiagonalizable("eigenvector matrix K is ill conditioned")

    # Permutation grouping the Jordan blocks of J by ratio class, read off
    # the block-diagonal action of S_tilde S^{-1}.
    ratio = S_tilde @ invert(S)
    pi_groups = [[] for _ in range(zeta.cardinality)]
    for start, size, lam in zip(starts, sizes, values):
        idx = list(range(start, start + size))
        sub = ratio[np.ix_(idx, idx)]
        mu_here = np.mean(np.diag(sub)) if size == 1 else np.mean(np.linalg.eigvals(sub))
        best, best_d = None, np.inf
        for ci, mu in enumerate(zeta.values):
            d = min(abs(mu_here - mu), abs(mu_here - cls.star_scalar(mu)))
            if d < best_d:
                best, best_d = ci, d
        if best_d > 100 * ZETA_CLUSTER_RTOL * max(1.0, abs(mu_here)):
            raise NotJBDiagonalizable(
                f"Jordan block at {lam:.6g} matches no ratio class")
        pi_groups[best].extend(idx)
    pi = np.array([i for grp in pi_groups for i in grp], dtype=int)

    sys_hat = coefficients_from_pair(X, J, S_hat, cls)
    for M in (sys_hat.A1, sys_hat.A0):
        mass = _offblock_mass(cls.star_of(K) @ M @ K, blocks)
        if mass > OFFBLOCK_RTOL:
            raise NotJBDiagonalizable(
                f"off-block mass {mass:.3e} exceeds tolerance; clustering "
                "ambiguous")
    return K, pi, blocks
