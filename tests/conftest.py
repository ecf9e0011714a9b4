"""Shared random-instance builders and independent oracles for the tests.

Oracles here deliberately avoid the code paths they check: matrix
exponentials come from scipy's Pade implementation, ergodicity from explicit
matrix powers and from a breadth-first search over adjacency lists, simplex integrals from composite Simpson quadrature, spin
operators from dense Kronecker products on the full 2^n space, chain
quantum numbers from two passes, every link before any node is read, a
lattice node's coupling from its factor operators summed on the bare factor
product, a lattice embedding from one block per slot of the larger subset,
a Kronecker-sum node's shifts, entry table, spectrum and frame from loops
over its own slots, with nothing shared between nodes, a lattice from
the per-node pipeline that the run passes replaced (each node's spectrum,
improving verdict and quantum number read on their own), a Kronecker
embedding from a loop over its blocks, sign cones and Kronecker embeddings
from the same generators and isometries taken as dense matrices, the
Metzler criterion from exponentials sampled over beta, and a lattice's
covering edges from a loop that builds each edge's embedding and decides
it as a chain link.
"""

import collections
import functools
import math
import sys

import numpy as np
import pytest
from scipy.linalg import expm

from conecalc import inheritance, lattice
from conecalc.cones import SelfDualCone, _signed_cone, orthant, tensor_cone
from conecalc.errors import (
    ArrowFailed,
    ChainFailed,
    ClassificationFailed,
    Inconsistent,
    LinkFailed,
    MuMismatch,
    NotCommuting,
    NotInAPlus,
    NotSimple,
)
from conecalc.inheritance import ChainReport, ground_overlap
from conecalc.numerics import (
    DEFAULT_TOL,
    LinearOperator,
    Spectrum,
    _EntryTable,
    _finite_real,
    _fix_phase,
    _kron,
    _kronecker_slot,
    _kronecker_sum,
    _strongly_connected,
    hermitian_eig,
    product_space,
    uniform_vector,
)
from conecalc.positivity import (
    ErgodicityReport,
    NodeAnalysis,
    classify,
    generates_improving_semigroup,
    generates_positive_semigroup,
)
from conecalc.spin import MlmReport, SpinSystem, m_sector, marshall_cone
from conecalc.stability import (
    COMMUTATOR_TOL,
    SNAP_TOL_FACTOR,
    ChainMuReport,
    _commutator,
    _KroneckerFamily,
    good_quantum_number,
)


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
    eigenvector.  A ``structured`` base cone has random signs, generator i
    being +-e_i, and every operator is real."""
    n = int(gen.integers(2, 4))
    if structured:
        cone = _signed_cone("base", gen.choice([-1.0, 1.0], n))
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
    """Keeps the arguments of every arrow decided (`inheritance._arrow`,
    which `check_arrow`, chain links and lattice edges call), under
    whichever module binds it."""
    calls = []
    original = inheritance._arrow

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in (inheritance, lattice):
        if getattr(module, "_arrow", None) is original:
            monkeypatch.setattr(module, "_arrow", counting)
    return calls


@pytest.fixture
def edge_embeddings(monkeypatch):
    """Keeps the rows that `lattice.build_lattice` lays out for its runs of
    covering edges (`lattice._insertion_rows`); called with the diagram it
    built, it gives the embedding of every edge, in edge order: the edge's
    own rows, cut from its run, between the spaces of its two nodes."""
    runs = []
    original = lattice._insertion_rows

    def keeping(below, n, above):
        cols, vals = original(below, n, above)
        runs.append((below * above, below * n * above, cols, vals))
        return cols, vals

    monkeypatch.setattr(lattice, "_insertion_rows", keeping)

    def embeddings(diagram) -> list:
        space = {node.subset: node.hamiltonian.space for node in diagram.nodes}
        out = []
        for dims_from, dims_to, cols, vals in runs:
            col, row = 0, 0
            for dim_from, dim_to in zip(dims_from.tolist(), dims_to.tolist()):
                small, large = diagram.covering_edges[len(out)]
                out.append(inheritance._row_embedding(space[small], space[large],
                                          cols[row:row + dim_to] - col,
                                          vals[row:row + dim_to].copy(), dim_from))
                col, row = col + dim_from, row + dim_to
        assert len(out) == len(diagram.covering_edges)
        return out
    return embeddings


def link_oracle(index: int, source: NodeAnalysis, target: NodeAnalysis,
                emb: inheritance.Embedding, label: str = "") -> inheritance.OverlapReport:
    """The verdict of one chain link on its own: `inheritance._link_verdict`
    of the link's `ground_overlap`, its arrow checked by `check_arrow`."""
    return inheritance._link_verdict(index, functools.partial(ground_overlap, source, target, emb),
                                     source.tol, label)


def edge_loop_oracle(family, records, subsets) -> tuple[list, list]:
    """A lattice's covering edges and their overlaps as a loop over the
    edges verifies them, one link at a time: each edge's embedding built on
    its own (`kronecker_embedding_oracle`) and decided by
    `link_oracle`, the verdict of chain links, on the
    records of its two nodes."""
    edges, overlaps = [], []
    for small in subsets:
        for mu in range(1, len(family.dims) + 1):
            if mu in small:
                continue
            large = tuple(sorted(small + (mu,)))
            source, target = records[small], records[large]
            blocks = [family.h0.dim]
            for nu in large:
                n = family.dims[nu - 1]
                blocks.append(n if nu in small else uniform_vector(n))
            emb = kronecker_embedding_oracle(source.hamiltonian.space, target.hamiltonian.space,
                                             blocks)
            rep = link_oracle(len(edges), source, target, emb, f"{small} -> {large}: ")
            edges.append((small, large))
            overlaps.append(rep.overlap)
    return edges, overlaps


@pytest.fixture
def node_frames(monkeypatch) -> list:
    """Keeps the frame through which each lattice node reads the pushed
    observable, in node order."""
    frames = []
    original = lattice._quantum_numbers

    def keeping(*args):
        frames.extend(args[-1])
        return original(*args)

    monkeypatch.setattr(lattice, "_quantum_numbers", keeping)
    return frames


def _caller_package(frame) -> str:
    """Top-level package of the nearest caller outside numpy."""
    while frame is not None and frame.f_globals.get("__name__", "").split(".")[0] == "numpy":
        frame = frame.f_back
    return "" if frame is None else frame.f_globals.get("__name__", "").split(".")[0]


@pytest.fixture
def decompositions(monkeypatch) -> collections.Counter:
    """Counts the `np.linalg` eigh, eigvalsh and svd calls made by conecalc,
    keyed by name; the svd inside `np.linalg.norm(a, 2)` counts as an svd.
    ``counts.shapes`` lists (name, shape of the decomposed array) per call.
    The tower slot that `stability._KroneckerFamily._flip_slot` decomposes
    once per process is made before counting starts, so a count does not
    depend on whether an earlier test built a tower."""
    _KroneckerFamily._flip_slot()
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


def kronecker_embedding_oracle(from_space: str, to_space: str, blocks) -> inheritance.Embedding:
    """The embedding by kron(*blocks), each block an identity, given by its
    size, or a real unit vector, appended as a column, by a loop over the
    blocks.

    Row r's entry vals[r] is the product, in block order, of the entries
    np.kron multiplies into it, so it has the bits of np.kron(*blocks).
    Distinct columns of such an isometry have disjoint supports, and each
    column's squared norm is the product of the vectors' own, so these decide
    orthonormality without the Gram product.
    """
    cols = np.zeros(1, dtype=np.intp)
    vals = np.ones(1)
    dim_from = 1
    square_norm = 1.0
    for block in blocks:
        if np.ndim(block) == 0:
            block = int(block)
            cols = (cols[:, None] * block + np.arange(block)).ravel()
            vals = np.repeat(vals, block)  # each times 1.0
            dim_from *= block
        else:
            block = np.asarray(block, dtype=float)
            cols = np.repeat(cols, block.size)
            with np.errstate(over="ignore"):  # an infinite norm is a refusal
                vals = (vals[:, None] * block).ravel()
                square_norm *= float(block @ block)
    if not abs(square_norm - 1.0) <= inheritance.ISOMETRY_TOL:
        raise ValueError("isometry columns are not orthonormal")
    return inheritance._row_embedding(from_space, to_space, cols, vals, dim_from)


def subset_embedding(spec: lattice.LatticeSpec, small, large) -> inheritance.Embedding:
    """The isometry between two subset spaces, one block per slot of the
    larger subset: the identity on a slot of the smaller one and the
    uniform vector on a new one, so a new slot is inserted among the kept
    ones in ascending order."""
    assert set(small) <= set(large), (small, large)
    blocks = [spec.h0.dim]
    for mu in large:
        n = spec.factors[mu - 1][0]
        blocks.append(n if mu in small else uniform_vector(n))

    def space(subset):
        return functools.reduce(product_space, (f"f{mu}" for mu in subset), spec.h0.space)

    return kronecker_embedding_oracle(space(small), space(large), blocks)


def factor_cone(spec: lattice.LatticeSpec, subset) -> SelfDualCone:
    """The orthant of the bare factor product of a nonempty subset."""
    cones = [orthant(f"f{mu}", spec.factors[mu - 1][0]) for mu in subset]
    cone = cones[0]
    for c in cones[1:]:
        cone = tensor_cone(cone, c)
    return cone


def shifts_oracle(slot_values) -> np.ndarray:
    """The eigenvalues k of a node's K, summed slot by slot from the
    eigenvalues of each slot."""
    k = np.zeros(1)
    for values in slot_values:
        k = (k[:, None] + values).ravel()
    return k


def entry_table_oracle(h0: np.ndarray, x: np.ndarray, slots) -> _EntryTable | None:
    """A node's `_EntryTable` by one loop over its slots."""
    if not (_finite_real(h0) and _finite_real(x) and all(slot.facts is not None for slot in slots)):
        return None
    d0 = h0.shape[0]
    diagonal = h0[:, :, None]
    for slot in slots:
        if slot.facts.diagonal.size:
            diagonal = (diagonal[:, :, :, None] - x[:, :, None, None]
                        * slot.facts.diagonal).reshape(d0, d0, -1)
    scale = max(float(diagonal.max()), float(-diagonal.min()))
    skew = float(np.abs(diagonal - diagonal.transpose(1, 0, 2)).max())
    coupled_skew = 0.0
    coupled = [slot for slot in slots if slot.mat.shape[0] > 1]
    low = high = None
    if coupled:
        low = min(slot.facts.low for slot in coupled)
        high = max(slot.facts.high for slot in coupled)
        scale = max(scale, float(np.abs(x).max()) * max(-low, high))
        symmetric = bool((x == x.T).all())
        for slot in coupled:
            if not (symmetric and slot.facts.symmetric):
                terms = x[:, :, None, None] * slot.mat
                swapped = np.abs(terms - terms.transpose(1, 0, 3, 2))
                part = float(swapped[:, :, ~np.eye(len(slot.mat), dtype=bool)].max())
                skew, coupled_skew = max(skew, part), max(coupled_skew, part)
    bottleneck = min((slot.facts.bottleneck for slot in coupled), default=math.inf)
    return _EntryTable(diagonal, low, high, bottleneck, scale + 0.0, skew, coupled_skew,
                       float(np.abs(x).max()), bool((x == x.T).all()),
                       bool((np.diagonal(x) > 0).all()))


def kronecker_apply_oracle(h: LinearOperator, psi: np.ndarray) -> np.ndarray:
    """H psi of one Kronecker sum by reshape, for a vector or a dim x k
    block: H0 on the base axis, and X times Y_mu on slot axis mu."""
    f = h._factors
    d0, shape = f.h0.shape[0], psi.shape
    psi = psi.reshape(d0, -1)
    k_psi = np.zeros_like(psi, dtype=np.result_type(psi, *(slot.mat for slot in f.slots)))
    before, after = d0, psi.shape[1]
    for slot in f.slots:
        n = slot.mat.shape[0]
        after //= n
        axis = k_psi.reshape(before, n, after)
        axis += slot.mat @ psi.reshape(before, n, after)
        before *= n
    return (f.h0 @ psi - f.x @ k_psi).reshape(shape)


def block_spectrum_oracle(h: LinearOperator) -> Spectrum:
    """The spectrum of a Kronecker-sum node on its own, from one `eigh` of
    all its blocks H0 - k X, k summed slot by slot, with nothing shared;
    a pair that H applied by reshape does not confirm raises
    `Inconsistent`, with the words of the library."""
    h.require_hermitian()
    f = h._factors
    k = shifts_oracle([slot.values for slot in f.slots])
    values, vectors = np.linalg.eigh(f.h0 - k[:, None, None] * f.x)
    block, level = divmod(int(values.argmin()), f.h0.shape[0])
    ground = vectors[block, :, level]
    for slot, column in zip(f.slots, np.unravel_index(block, [s.values.size for s in f.slots])):
        ground = np.multiply.outer(ground, slot.vectors[:, column]).ravel()
    _fix_phase(ground)
    eigenvalues = np.sort(values, axis=None)
    scale = max(-eigenvalues[0], eigenvalues[-1])
    residual = float(np.linalg.norm(kronecker_apply_oracle(h, ground) - eigenvalues[0] * ground))
    if not residual <= 1e-10 * scale:
        raise Inconsistent(f"block ground pair of the operator on {h.space!r} has residual "
                           f"{residual:.3e}, above 1e-10 * ||H||")
    return Spectrum(eigenvalues, ground)


def factor_improving_oracle(h: LinearOperator, cone: SelfDualCone, tol: float):
    """`generates_improving_semigroup` of one real Kronecker sum on a sign
    cone whose signs depend on the base index alone, from its entry table
    and its own fibers; None where the dense route decides."""
    f = h._factors
    if f is None or (table := f.table) is None or not tol >= 0:
        return None
    h.require_hermitian()
    if (fibers := cone._fibers(h, f.h0.shape[0])) is None:
        return None
    thresh = tol * table.scale
    flip = fibers.flip
    diagonal = table.diagonal * flip[:, :, None]
    above = diagonal > thresh
    base = np.arange(f.h0.shape[0])
    above[base, base] = False
    if above.any():
        return False
    quotient = (diagonal < -thresh).any(axis=2)
    if table.low is not None:
        x = f.x * flip
        ends = x * table.low, x * table.high
        if np.minimum(*ends).min() < -thresh:
            return False
        quotient |= np.maximum(*ends) > thresh
        if not (table.x_positive_weights
                and (thresh < np.diagonal(f.x) * table.bottleneck).all()):
            return None
    quotient[base, base] = True
    return bool(quotient.all()) or _strongly_connected(quotient)


def improving_oracle(h: LinearOperator, cone: SelfDualCone, tol: float) -> bool:
    """The improving verdict of one Hamiltonian: `factor_improving_oracle`,
    or the dense route where it does not decide."""
    verdict = factor_improving_oracle(h, cone, tol)
    return generates_improving_semigroup(h, cone, tol) if verdict is None else verdict


def commutes_oracle(h: LinearOperator, o: np.ndarray, scale: float, frame=None) -> bool:
    """||[H, T O T^*]|| <= COMMUTATOR_TOL * scale for one H and its frame T
    (None for the identity): the Frobenius bound of G = T^* H T and
    L = H T - T G, then the spectral norm on the range of [T, Q]."""
    if frame is None:
        g, beyond = h.mat, None
    else:
        a = kronecker_apply_oracle(h, frame) if h._factors is not None else h.mat @ frame
        g = frame.conj().T @ a
        beyond = a - frame @ g
    thresh = COMMUTATOR_TOL * max(scale, 1e-300)
    c = _commutator(g, o)
    square = float(np.vdot(c, c).real)
    if beyond is not None:
        lo = beyond @ o
        square += 2.0 * float(np.vdot(lo, lo).real)
    if math.sqrt(square) <= thresh:
        return True
    if beyond is not None:
        ro = np.linalg.qr(beyond, mode="r") @ o
        c = np.block([[c, -ro.conj().T], [ro, np.zeros_like(ro)]])
    return float(np.abs(np.linalg.eigvalsh(1j * c)).max()) <= thresh


def quantum_number_oracle(node: NodeAnalysis, o: LinearOperator, o_norm: float, candidates,
                          frame=None) -> tuple[float, float, float, np.ndarray]:
    """The quantum number of O on one record's ground state, through its
    frame: (mu, snapped mu, residual, O psi), or the library's failure."""
    h = node.hamiltonian
    if h.dim != (o.dim if frame is None else frame.shape[0]):
        raise NotCommuting("operators act on different spaces")
    if not commutes_oracle(h, o.mat, node.norm * o_norm, frame):
        raise NotCommuting("Hamiltonian does not commute with the observable")
    if not node.improving:
        raise NotInAPlus("Hamiltonian is not improving-class on the cone")
    g = node.ground
    if not g.simple:
        raise NotSimple(f"ground gap {g.gap01:.3e} is below the simplicity threshold")
    psi = g.vector
    phi = psi if frame is None else frame.conj().T @ psi
    o_phi = o.mat @ phi
    mu = float(np.vdot(phi, o_phi).real)
    o_psi = o_phi if frame is None else frame @ o_phi
    o_scale = max(o_norm, 1e-300)
    candidates = np.asarray(candidates, dtype=float)
    snapped = float(candidates[np.argmin(np.abs(candidates - mu))])
    residual = float(np.linalg.norm(o_psi - mu * psi))
    if residual > SNAP_TOL_FACTOR * o_scale or abs(mu - snapped) > SNAP_TOL_FACTOR * o_scale:
        raise Inconsistent(
            f"ground state is not an observable eigenvector: residual {residual:.3e}"
        )
    return mu, snapped, residual, o_psi


def lattice_oracle(spec: lattice.LatticeSpec, tol: float = DEFAULT_TOL) -> lattice.HasseDiagram:
    """`build_lattice` as a loop over the nodes: each node's record read on
    its own (`oracle_record`), then its improving verdict and its quantum
    number through its own frame (`quantum_number_oracle`), the first
    failure raised in node order; then the edges as chain links
    (`edge_loop_oracle`)."""
    report = lattice.verify_spec(spec, tol)
    if not report.ok:
        raise lattice.SpecFailed("; ".join(report.notes))
    if not report.mu_compatible:
        raise lattice.SpecFailed(
            "uniform vector is not an eigenvector of every Y_mu; "
            "quantum numbers would not transfer to the perturbed nodes")
    o_spectrum = hermitian_eig(spec.observable)
    snap_to = np.concatenate([o_spectrum.eigenvalues, [0.0]])
    subsets = lattice._all_subsets(spec.ell)
    family = lattice._family(spec)
    nodes, records = [], {}
    for subset in subsets:
        record = oracle_record(spec, subset, tol)
        if not record.improving:
            raise ClassificationFailed(f"H_{set(subset) or '{}'} is not improving-class")
        frame = frame_oracle(spec.h0.dim, [spec.factors[mu - 1][0] for mu in subset])
        mu, mu_snapped, _, _ = quantum_number_oracle(record, spec.observable, o_spectrum.norm,
                                                     snap_to, frame)
        nodes.append(lattice.LatticeNode(subset, record.hamiltonian, record.cone, mu,
                                         mu_snapped, record.ground.energy))
        records[subset] = record
    for node in nodes:
        if node.mu_snapped != nodes[0].mu_snapped:
            raise ClassificationFailed(f"snapped quantum number moved at {node.subset}: "
                                       f"{node.mu_snapped} != {nodes[0].mu_snapped}")
    edges, overlaps = edge_loop_oracle(family, records, subsets)
    return lattice.HasseDiagram(tuple(nodes), tuple(edges), tuple(overlaps), report)


def frame_oracle(d0: int, dims) -> np.ndarray:
    """The isometry from the base into a node: the base identity with the
    uniform vector of each slot appended by `_kron`, one slot at a time."""
    frame = np.eye(d0)
    for n in dims:
        frame = _kron(frame, uniform_vector(n)[:, None])
    return frame


def oracle_record(spec: lattice.LatticeSpec, subset, tol: float = DEFAULT_TOL) -> NodeAnalysis:
    """A lattice node's record as the per-node loops read it: its slots
    decomposed afresh, its shifts, entry table and spectrum from the
    oracles above, and its cone the base cone tensored with one slot
    orthant at a time."""
    slots = [_kronecker_slot(spec.factors[mu - 1][1].mat) for mu in subset]
    space, cone = spec.h0.space, spec.cone
    for mu in subset:
        space = product_space(space, f"f{mu}")
        cone = tensor_cone(cone, orthant(f"f{mu}", spec.factors[mu - 1][0]))
    h = _kronecker_sum(space, spec.h0, spec.x, slots,
                       entry_table_oracle(spec.h0.mat, spec.x.mat, slots))
    record = NodeAnalysis(h, cone, tol)
    # read on its own, through no run pass
    record.__dict__["spectrum"] = block_spectrum_oracle(h)
    record.__dict__["improving"] = improving_oracle(h, cone, tol)
    return record


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal entry for entry in the same dtype, the sign of every zero
    included."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def permuted_cone(gen: np.random.Generator, space: str, n: int) -> SelfDualCone:
    """An explicit cone whose generator i is +-e_{p(i)}, for a random
    permutation p and random signs, a stack no sign cone keeps unless p is
    the identity."""
    return SelfDualCone(space, np.eye(n)[:, gen.permutation(n)] * gen.choice([-1.0, 1.0], n))


def dense_cone(cone: SelfDualCone) -> SelfDualCone:
    """The same cone given by its generator matrix, as an explicit cone: the
    dense products and the Gram check, whatever structure the cone keeps."""
    return SelfDualCone(cone.space, np.array(cone.generators))


def cone_contains(cone: SelfDualCone, x: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    """Membership: every generator coordinate real and >= -tol*|x|.  The
    zero vector is a member."""
    c = cone.coords(x)
    scale = float(np.linalg.norm(x))
    if scale == 0.0:
        return True
    return bool((c.real >= -tol * scale).all() and (np.abs(c.imag) <= tol * scale).all())


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


def reach_table_oracle(edges: np.ndarray) -> np.ndarray:
    """table[i, j] = least walk length from j to i along edges[i, j] (an
    edge j -> i), or -1 if unreachable: a breadth-first search from every
    vertex over adjacency lists."""
    n = edges.shape[0]
    out_edges = [list(np.nonzero(edges[:, j])[0]) for j in range(n)]
    table = -np.ones((n, n), dtype=int)
    for j in range(n):
        table[j, j] = 0
        queue = collections.deque([j])
        while queue:
            v = queue.popleft()
            for w in out_edges[v]:
                if table[w, j] < 0:
                    table[w, j] = table[v, j] + 1
                    queue.append(w)
    return table


def ergodicity_oracle(a: LinearOperator, cone: SelfDualCone,
                      tol: float = DEFAULT_TOL) -> ErgodicityReport:
    """`is_ergodic`'s report on a cone-preserving A, its table by
    `reach_table_oracle` and its borderline entries read one by one."""
    m = cone.operator_coords(a).real
    n = m.shape[0]
    thresh = tol * float(np.abs(m).max())
    table = reach_table_oracle(m > thresh)
    borderline = tuple((i, j, complex(m[i, j])) for i in range(n) for j in range(n)
                       if 0.0 < m[i, j] <= thresh)
    missing = [(i, j) for i in range(n) for j in range(n) if table[i, j] < 0]
    failing = missing[0] if missing else None
    return ErgodicityReport(failing is None, table, failing, borderline)


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
    nodes, so that nothing is shared between links."""
    overlaps, improving = [], []
    for j, emb in enumerate(chain.embeddings):
        src, dst = chain.nodes[j], chain.nodes[j + 1]
        try:
            rep = ground_overlap(NodeAnalysis(src.hamiltonian, src.cone, tol),
                                 NodeAnalysis(dst.hamiltonian, dst.cone, tol), emb)
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
    """The oracle of `quantum_number_along_chain`: every link is verified
    first on fresh records (`two_pass_links`), then every node is decomposed
    afresh on its cone and read against the observable pushed forward to
    it, where the library reads the records its links kept and reads the
    pushed observable through its frame.  A failure in the second pass can
    only surface once the first has passed."""
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
        record = NodeAnalysis(node.hamiltonian, node.cone, tol)
        record.spectrum  # decomposed before the observable is pushed on to it
        if j:
            extended = chain.embeddings[j - 1].extend(extended)
        candidates = base_candidates if j == 0 else extended_candidates
        try:
            mu, mu_snapped = quantum_number_oracle(record, extended, o_spectrum.norm,
                                                   candidates)[:2]
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


def assert_same_readings(got, want) -> None:
    """Two outcomes of reading a chain's quantum numbers: equal failures,
    or reports with equal snapped values and overlaps whose raw values and
    telescope residuals agree to rounding.  The library reads a pushed
    observable through its frame, in the base space, where the oracle reads
    the dense tau O tau^*, so the two round apart at the 1e-15 scale."""
    if not (isinstance(got, ChainMuReport) and isinstance(want, ChainMuReport)):
        assert got == want
        return
    assert (got.snapped, got.overlaps) == (want.snapped, want.overlaps)
    assert got.values == pytest.approx(want.values, rel=1e-12, abs=1e-15)
    assert got.telescope_residuals == pytest.approx(want.telescope_residuals,
                                                    rel=1e-12, abs=1e-15)
