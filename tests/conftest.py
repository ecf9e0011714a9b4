"""Shared random-instance builders and independent oracles for the tests.

Oracles here deliberately avoid the code paths they check: matrix
exponentials come from scipy's Pade implementation, ergodicity from explicit
matrix powers, simplex integrals from composite Simpson quadrature, spin
operators from dense Kronecker products on the full 2^n space, chain
quantum numbers from two passes, every link before any node is read, a
lattice node's coupling from its factor operators summed on the bare factor
product, signed-permutation cones and Kronecker embeddings from the same
generators and isometries taken as dense matrices, and the Metzler criterion
from exponentials sampled over beta.
"""

import collections
import math
import sys

import numpy as np
import pytest
from scipy.linalg import expm

from conecalc import inheritance, lattice
from conecalc.cones import SelfDualCone, _signed_permutation_cone, orthant, tensor_cone
from conecalc.errors import (
    ArrowFailed,
    ChainFailed,
    LinkFailed,
    MuMismatch,
    NotCommuting,
    NotInAPlus,
    NotSimple,
)
from conecalc.inheritance import ChainReport, ground_overlap
from conecalc.numerics import DEFAULT_TOL, LinearOperator, hermitian_eig
from conecalc.positivity import (
    NodeAnalysis,
    classify,
    generates_improving_semigroup,
    generates_positive_semigroup,
)
from conecalc.spin import MlmReport, SpinSystem, m_sector, marshall_cone
from conecalc.stability import ChainMuReport, _quantum_number, good_quantum_number


def rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def random_hermitian(gen: np.random.Generator, n: int, scale: float = 1.0) -> np.ndarray:
    a = gen.normal(size=(n, n)) + 1j * gen.normal(size=(n, n))
    return scale * 0.5 * (a + a.conj().T)


def random_real_symmetric(gen: np.random.Generator, n: int, scale: float = 1.0) -> np.ndarray:
    a = gen.normal(size=(n, n))
    return scale * 0.5 * (a + a.T)


def random_metzler_generator(gen: np.random.Generator, n: int,
                             block_split: int | None = None) -> np.ndarray:
    """Random Hermitian H with nonpositive off-diagonal entries.

    With ``block_split`` = k, all coupling between the first k and the last
    n-k coordinates is removed, making H reducible.
    """
    h = random_real_symmetric(gen, n)
    off = -np.abs(h)
    np.fill_diagonal(off, np.diag(h))
    if block_split is not None:
        off[:block_split, block_split:] = 0.0
        off[block_split:, :block_split] = 0.0
    return off


def random_nonneg_irreducible(gen: np.random.Generator, n: int) -> np.ndarray:
    """Entrywise nonnegative symmetric matrix with a connected support graph."""
    m = np.abs(random_real_symmetric(gen, n))
    for i in range(n):  # a ring keeps every pair connected
        j = (i + 1) % n
        m[i, j] = m[j, i] = max(m[i, j], 0.5)
    return m


def _random_circulant(gen: np.random.Generator, n: int, nonnegative: bool) -> np.ndarray:
    """Symmetric circulant; with ``nonnegative`` its ring entries are
    positive, so its digraph is connected."""
    row = gen.uniform(0.0, 1.0, size=n) if nonnegative else gen.normal(size=n)
    row = 0.5 * (row + np.roll(row[::-1], 1))
    if nonnegative and n > 1:
        row[1] = row[-1] = max(row[1], 0.2)
    return np.array([np.roll(row, k) for k in range(n)])


def random_lattice_spec(gen: np.random.Generator,
                        structured: bool = False) -> lattice.LatticeSpec:
    """A spec that meets every standing assumption.  In the generator basis
    of a random unitary base cone, H0 = a - C0, X and O are symmetric
    circulants, so they commute; C0 and X are nonnegative and C0 is
    irreducible.  Each Y_mu is a nonnegative irreducible symmetric circulant
    with its coordinates permuted, so the uniform vector stays an
    eigenvector.  A ``structured`` base cone is a random signed permutation,
    and every operator is real."""
    n = int(gen.integers(2, 4))
    if structured:
        cone = _signed_permutation_cone("base", gen.permutation(n), gen.choice([-1.0, 1.0], n))
        q = cone.generators
    else:
        q, _ = np.linalg.qr(gen.normal(size=(n, n)) + 1j * gen.normal(size=(n, n)))
        cone = SelfDualCone("base", q)

    def base_op(coords):
        return op("base", q @ coords @ q.conj().T)

    factors = []
    for mu in range(1, int(gen.integers(1, 4)) + 1):
        m = int(gen.integers(2, 4))
        perm = np.eye(m)[gen.permutation(m)]
        y = perm @ _random_circulant(gen, m, True) @ perm.T
        factors.append((m, op(f"f{mu}", gen.uniform(0.1, 2.0) * y)))
    return lattice.LatticeSpec(
        h0=base_op(gen.normal() * np.eye(n) - _random_circulant(gen, n, True)),
        cone=cone,
        observable=base_op(_random_circulant(gen, n, False)),
        x=base_op(_random_circulant(gen, n, True)),
        factors=tuple(factors),
    )


def random_density(gen: np.random.Generator, n: int) -> np.ndarray:
    a = gen.normal(size=(n, n)) + 1j * gen.normal(size=(n, n))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def random_unit(gen: np.random.Generator, n: int, real: bool = False) -> np.ndarray:
    v = gen.normal(size=n) if real else gen.normal(size=n) + 1j * gen.normal(size=n)
    return v / np.linalg.norm(v)


def op(space: str, mat) -> LinearOperator:
    return LinearOperator(space, np.asarray(mat, dtype=complex))


@pytest.fixture
def arrow_calls(monkeypatch) -> list:
    """Keeps the arguments of every `check_arrow` call, under whichever module binds it."""
    calls = []
    original = inheritance.check_arrow

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in (inheritance, lattice):
        if getattr(module, "check_arrow", None) is original:
            monkeypatch.setattr(module, "check_arrow", counting)
    return calls


def _caller_package(frame) -> str:
    """Top-level package of the nearest caller outside numpy."""
    while frame is not None and frame.f_globals.get("__name__", "").split(".")[0] == "numpy":
        frame = frame.f_back
    return "" if frame is None else frame.f_globals.get("__name__", "").split(".")[0]


@pytest.fixture
def decompositions(monkeypatch) -> collections.Counter:
    """Counts the `np.linalg` eigh, eigvalsh and svd calls made by conecalc,
    keyed by name; the svd inside `np.linalg.norm(a, 2)` counts as an svd.
    ``counts.shapes`` lists (name, shape of the decomposed array) per call."""
    counts = collections.Counter()
    counts.shapes = []
    norm_module = getattr(np.linalg.norm, "__wrapped__", np.linalg.norm).__globals__
    for name in ("eigh", "eigvalsh", "svd"):
        original = getattr(np.linalg, name)

        def counting(a, *args, _name=name, _original=original, **kwargs):
            if _caller_package(sys._getframe(1)) == "conecalc":
                counts[_name] += 1
                counts.shapes.append((_name, np.shape(a)))
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
        if norm_module.get(name) is original:
            monkeypatch.setitem(norm_module, name, counting)
    return counts


def expm_oracle(mat: np.ndarray) -> np.ndarray:
    """Independent matrix exponential (scaling-and-squaring, not eigenbasis)."""
    return expm(np.asarray(mat, dtype=complex))


BETA_SAMPLES = (0.1, 1.0, 10.0)


def semigroup_positive_all_beta(h: LinearOperator, cone: SelfDualCone,
                                tol: float = DEFAULT_TOL,
                                betas: tuple[float, ...] = BETA_SAMPLES) -> bool:
    """`generates_positive_semigroup` cross-checked against exponentials of
    -beta*H sampled over beta, each classified against the cone.

    A positive verdict must survive every sampled beta.  A negative verdict
    must be confirmed by some sampled beta; small off-diagonal violations
    can be masked by second-order terms on the default grid, so an extra
    beta matched to the worst offending entry (where the linear term
    dominates) is tried before the two sides are called inconsistent.
    """

    def preserving(beta: float) -> bool:
        return classify(LinearOperator(h.space, expm_oracle(-beta * h.mat)), cone, tol).preserving

    metzler = generates_positive_semigroup(h, cone, tol)
    sampled = all(preserving(b) for b in betas)
    if not metzler and sampled:
        m = cone.operator_coords(h)
        off = m.real.copy()
        np.fill_diagonal(off, -np.inf)
        worst = float(off.max())
        norm_sq = float(np.linalg.norm(m, 2)) ** 2
        if worst > 0.0 and norm_sq > 0.0:
            sampled = preserving(worst / norm_sq)
    assert metzler == sampled, (
        f"Metzler criterion says {metzler} but the sampled exponentials say {sampled}")
    return metzler


def combined_factor_operator(spec: lattice.LatticeSpec, subset) -> LinearOperator:
    """sum_mu 1(x)...(x)Y_mu(x)...(x)1 on the bare factor product of a
    nonempty subset (no base space)."""
    dims = [spec.factors[mu - 1][0] for mu in subset]
    total = math.prod(dims)
    mat = np.zeros((total, total), dtype=complex)
    for k, mu in enumerate(subset):
        before = math.prod(dims[:k])
        after = math.prod(dims[k + 1:])
        mat += np.kron(np.kron(np.eye(before), spec.factors[mu - 1][1].mat), np.eye(after))
    return LinearOperator("*".join(f"f{mu}" for mu in subset), mat)


def factor_cone(spec: lattice.LatticeSpec, subset) -> SelfDualCone:
    """The orthant of the bare factor product of a nonempty subset."""
    cones = [orthant(f"f{mu}", spec.factors[mu - 1][0]) for mu in subset]
    cone = cones[0]
    for c in cones[1:]:
        cone = tensor_cone(cone, c)
    return cone


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal entry for entry in the same dtype, the sign of every zero
    included."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def dense_cone(cone: SelfDualCone) -> SelfDualCone:
    """The same cone given by its generator matrix, as an explicit cone: the
    dense products and the Gram check, whatever structure the cone keeps."""
    return SelfDualCone(cone.space, np.array(cone.generators), cone.label)


def dense_embedding(emb: inheritance.Embedding) -> inheritance.Embedding:
    """The same embedding given by its isometry: dense products and the Gram
    check, whatever structure the embedding keeps."""
    return inheritance.Embedding(emb.from_space, emb.to_space, np.array(emb.isometry))


def power_connectivity_oracle(m: np.ndarray, max_k: int) -> np.ndarray:
    """least_k[i, j] via explicit matrix powers: smallest k with (M^k)_ij > 0."""
    n = m.shape[0]
    table = -np.ones((n, n), dtype=int)
    power = np.eye(n)
    for k in range(max_k + 1):
        hit = (power > 1e-12) & (table < 0)
        table[hit] = k
        power = power @ m
    return table


def simpson_weights(num_points: int, length: float) -> np.ndarray:
    """Composite Simpson weights on [0, length] with an odd number of nodes."""
    assert num_points % 2 == 1 and num_points >= 3
    h = length / (num_points - 1)
    w = np.ones(num_points)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w * h / 3.0


def duhamel_term_oracle(a: np.ndarray, b: np.ndarray, beta: float, order: int,
                        num_points: int = 81) -> np.ndarray:
    """Simplex integral of B(s_1)...B(s_order) e^{-beta A}, B(s) = e^{-sA} B e^{sA}.

    Composite Simpson per axis; order 0 returns e^{-beta A} directly.
    """
    if order == 0:
        return expm_oracle(-beta * a)
    if order == 1:
        nodes = np.linspace(0.0, beta, num_points)
        w = simpson_weights(num_points, beta)
        total = np.zeros_like(a, dtype=complex)
        for s, ws in zip(nodes, w):
            total += ws * expm_oracle(-s * a) @ b @ expm_oracle(-(beta - s) * a)
        return total
    if order == 2:
        outer_nodes = np.linspace(0.0, beta, num_points)
        outer_w = simpson_weights(num_points, beta)
        total = np.zeros_like(a, dtype=complex)
        for s2, w2 in zip(outer_nodes, outer_w):
            if s2 == 0.0:
                continue
            inner_nodes = np.linspace(0.0, s2, num_points)
            inner_w = simpson_weights(num_points, s2)
            inner = np.zeros_like(a, dtype=complex)
            for s1, w1 in zip(inner_nodes, inner_w):
                inner += w1 * (expm_oracle(-s1 * a) @ b @ expm_oracle((s1 - s2) * a) @ b
                               @ expm_oracle(-(beta - s2) * a))
            total += w2 * inner
        return total
    raise ValueError("oracle implemented for orders 0..2 only")


_HALF_PAULI = (
    np.array([[0.0, 0.5], [0.5, 0.0]], dtype=complex),
    np.array([[0.0, -0.5j], [0.5j, 0.0]], dtype=complex),
    np.array([[0.5, 0.0], [0.0, -0.5]], dtype=complex),
)


def dense_site_spin(n: int, site: int, component: int) -> np.ndarray:
    """Component (0, 1, 2 = x, y, z) of the spin of one site, site 1 the
    leftmost tensor factor, as a dense 2^n matrix."""
    return np.kron(np.kron(np.eye(2 ** (site - 1)), _HALF_PAULI[component]),
                   np.eye(2 ** (n - site)))


def _dense_collective(n: int, sites, component: int) -> np.ndarray:
    total = np.zeros((2 ** n, 2 ** n), dtype=complex)
    for x in sites:
        total += dense_site_spin(n, x, component)
    return total


def dense_mlm_hamiltonian(system: SpinSystem) -> LinearOperator:
    """S_A . S_B as the product of the two collective spins."""
    n = system.sites
    mat = np.zeros((2 ** n, 2 ** n), dtype=complex)
    for j in range(3):
        mat += _dense_collective(n, system.sublattice_a, j) @ _dense_collective(
            n, system.sublattice_b, j)
    return LinearOperator(system.space, mat)


def dense_total_spin(n: int) -> tuple[LinearOperator, LinearOperator]:
    """(S_tot^2, S_tot^z) as squares and sums of collective spins."""
    everything = range(1, n + 1)
    sq = np.zeros((2 ** n, 2 ** n), dtype=complex)
    for j in range(3):
        comp = _dense_collective(n, everything, j)
        sq += comp @ comp
    space = f"spins{n}"
    return LinearOperator(space, sq), LinearOperator(space, _dense_collective(n, everything, 2))


def heisenberg_hamiltonian(system: SpinSystem, edges) -> LinearOperator:
    """sum over edges of S_x . S_y, for an arbitrary coupling graph."""
    n = system.sites
    mat = np.zeros((2 ** n, 2 ** n), dtype=complex)
    for x, y in edges:
        for j in range(3):
            mat += dense_site_spin(n, x, j) @ dense_site_spin(n, y, j)
    return LinearOperator(system.space, mat)


def complete_bipartite_edges(system: SpinSystem) -> tuple[tuple[int, int], ...]:
    return tuple((x, y) for x in system.sublattice_a for y in system.sublattice_b)


def all_sector_dims(n: int) -> dict[float, int]:
    """Dimension of every magnetization sector; they must sum to 2^n."""
    return {n / 2.0 - k: math.comb(n, k) for k in range(n + 1)}


def random_spin_system(gen: np.random.Generator, n: int) -> SpinSystem:
    """n sites split into two nonempty sublattices of random size."""
    size = int(gen.integers(1, n))
    a = tuple(sorted(int(s) for s in gen.choice(np.arange(1, n + 1), size, replace=False)))
    return SpinSystem(n, a, tuple(s for s in range(1, n + 1) if s not in a))


def dense_verify_mlm(system: SpinSystem, m: float, tol: float = DEFAULT_TOL,
                     hamiltonian: LinearOperator | None = None,
                     s_sq: LinearOperator | None = None) -> MlmReport:
    """`verify_mlm` through the dense operators: both are compressed into the
    sector through its isometry before the same cone and quantum-number
    checks.  Pass precomputed operators to reuse them across sectors."""
    sector = m_sector(system.sites, m)
    h = dense_mlm_hamiltonian(system) if hamiltonian is None else hamiltonian
    cone = marshall_cone(system, sector, h, tol)
    h_r = sector.embedding.compress(h)
    o_r = sector.embedding.compress(dense_total_spin(system.sites)[0] if s_sq is None else s_sq)
    assert generates_improving_semigroup(h_r, cone, tol)
    gqn = good_quantum_number(h_r, o_r, cone, tol)
    s_star = abs(len(system.sublattice_a) - len(system.sublattice_b)) / 2.0
    s = max(s_star, abs(m))
    expected = s * (s + 1.0)
    return MlmReport(system.sites, system.sublattice_a, system.sublattice_b, m, sector.dim,
                     s_star, gqn.value, gqn.snapped, expected,
                     abs(gqn.snapped - expected) <= 1e-8, gqn.ground.energy, gqn.gap01)


def _failure(exc: Exception, index: int) -> Exception:
    exc.index = index
    return exc


def two_pass_links(chain, tol: float = DEFAULT_TOL) -> ChainReport:
    """`verify_chain` link by link, each link on fresh records of its two
    nodes, so that nothing is shared or released between links."""
    overlaps, improving = [], []
    for j, emb in enumerate(chain.embeddings):
        src, dst = chain.nodes[j], chain.nodes[j + 1]
        try:
            rep = ground_overlap(NodeAnalysis(src.hamiltonian, src.cone, tol),
                                 NodeAnalysis(dst.hamiltonian, dst.cone_in, tol), emb)
        except ArrowFailed as exc:
            raise LinkFailed(j, str(exc)) from exc
        if rep.overlap <= tol:
            raise LinkFailed(j, f"ground overlap {rep.overlap!r} is not strictly positive")
        if not rep.improving_ok:
            raise LinkFailed(j, "compressed ground projector does not improve the cone")
        overlaps.append(rep.overlap)
        improving.append(rep.improving_ok)
    return ChainReport(tuple(overlaps), tuple(improving))


def two_pass_quantum_numbers(chain, o: LinearOperator,
                             tol: float = DEFAULT_TOL) -> ChainMuReport:
    """`quantum_number_along_chain` in two passes: every link is verified
    first, then every node is decomposed afresh on `chain.mu_cone(j)` and
    read against the observable pushed forward to it.  A failure in the
    second pass can only surface once the first has passed."""
    try:
        links = two_pass_links(chain, tol)
    except LinkFailed as exc:
        raise _failure(ChainFailed(str(exc)), exc.index) from exc
    o_spectrum = hermitian_eig(o)
    base_candidates = o_spectrum.eigenvalues
    extended_candidates = np.concatenate([base_candidates, [0.0]])
    values, snapped, telescopes = [], [], []
    extended = o
    for j, node in enumerate(chain.nodes):
        record = NodeAnalysis(node.hamiltonian, chain.mu_cone(j), tol)
        record.spectrum  # decomposed before the observable is pushed on to it
        if j:
            extended = chain.embeddings[j - 1].extend(extended)
        candidates = base_candidates if j == 0 else extended_candidates
        try:
            mu, mu_snapped, _ = _quantum_number(record, extended, o_spectrum.norm, candidates)
        except (NotCommuting, NotSimple, NotInAPlus) as exc:
            raise _failure(type(exc)(f"node {j}: {exc}"), j) from exc
        values.append(mu)
        snapped.append(mu_snapped)
        if snapped[j] != snapped[0]:
            raise MuMismatch(j, snapped[0], snapped[j])
        psi = record.ground.vector
        if j:
            lhs = complex(np.vdot(o_psi, chain.embeddings[j - 1].pull(psi)))
            telescopes.append(abs(lhs - snapped[j - 1] * links.overlaps[j - 1]))
        o_psi = extended.mat @ psi
    return ChainMuReport(tuple(values), tuple(snapped), links.overlaps, tuple(telescopes))
