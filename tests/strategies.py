"""The suite's one input vocabulary: the plain builders of test data, then
one hypothesis strategy per input kind (boxes, tag masks and score fields,
nesting layouts, data hierarchies with their bounds, selectors, codec
runs, meshes, extent layouts). Array-valued strategies draw a seed and
build from it, so that examples stay cheap. A new input kind is added
here, once, and every oracle draws from it."""

from __future__ import annotations

import numpy as np
from hypothesis import strategies as st

from repro.amr import AMRHierarchy, AMRLevel, Box, BoxArray, Patch
from repro.compression import huffman
from repro.compression.base import SharedEntropy
from repro.compression.sz_lr import SZLR
from repro.serve import Extent
from repro.viz import TriangleMesh


# ----------------------------------------------------------------------
# Builders
# ----------------------------------------------------------------------
def make_sphere_hierarchy(n: int = 16, radius: float = 0.55) -> AMRHierarchy:
    """Two-level hierarchy holding the distance field of a sphere.

    Level 1 refines the +x half of the domain; the field is the distance to
    the domain center, so the ``radius`` iso-surface is a sphere crossing
    the level interface.
    """

    def dist_cells(box: Box, dx: float) -> np.ndarray:
        axes = [(np.arange(box.lo[d], box.hi[d] + 1) + 0.5) * dx for d in range(3)]
        xx, yy, zz = np.meshgrid(*axes, indexing="ij")
        return np.sqrt((xx - 1.0) ** 2 + (yy - 1.0) ** 2 + (zz - 1.0) ** 2)

    dom = Box.from_shape((n, n, n))
    dx0 = 2.0 / n
    level0 = AMRLevel(
        0, BoxArray([dom]), (dx0,) * 3, {"f": [Patch(dom, dist_cells(dom, dx0))]}
    )
    fine_boxes = BoxArray([Box((n, 0, 0), (2 * n - 1, 2 * n - 1, 2 * n - 1))])
    level1 = AMRLevel(
        1,
        fine_boxes,
        (dx0 / 2,) * 3,
        {"f": [Patch(b, dist_cells(b, dx0 / 2)) for b in fine_boxes]},
    )
    return AMRHierarchy(dom, [level0, level1], 2)


def step_hierarchy(s: int, n: int) -> AMRHierarchy:
    """Step ``s`` of a campaign: the ``n``-cell sphere hierarchy, its data
    moved per step so that no two steps hold the same bytes."""
    h = make_sphere_hierarchy(n=n)
    for level in h.levels:
        for p in level.patches("f"):
            p.data += 0.05 * (s + 1) * np.cos(p.data * (s + 1))
    return h


def scaled_steps(n: int, step: float = 0.25, cells: int = 8) -> list[AMRHierarchy]:
    """``n`` campaign steps: the ``cells``-cell sphere hierarchy scaled by
    ``1 + step * i`` at step ``i``."""
    base = make_sphere_hierarchy(cells)
    return [base.map_fields(lambda lev, name, d, i=i: d * (1.0 + step * i)) for i in range(n)]


def make_field(rng: np.random.Generator, shape, kind: str = "rough") -> np.ndarray:
    """A smooth sum of sines over ``shape``: ``rough`` adds noise, ``const``
    is flat, ``lattice`` ties on the quantization lattice, ``wild`` holds
    more than 2**16 distinct codes."""
    axes = np.meshgrid(*[np.linspace(0.0, 1.0, s) for s in shape], indexing="ij")
    base = sum(np.sin((3 + d) * x) for d, x in enumerate(axes))
    if kind == "const":
        return np.full(shape, 2.5)
    if kind == "lattice":  # exact ties on the quantization lattice
        return np.round(base * 4)
    if kind == "wild":  # > 2**16 distinct codes: too many to Huffman-code
        return rng.standard_normal(shape) * 1e6
    noise = 0.0 if kind == "smooth" else 0.05
    return base + noise * rng.standard_normal(shape)


def many_patch_hierarchy(seed: int = 11) -> AMRHierarchy:
    """16 coarse 8^3 patches; 60 fine patches (56 of 8^3, 4 of 8x8x16) over
    half the domain — 32768 fine cells per field; the ``small_budget``
    tests cut it into runs of 4096."""
    rng = np.random.default_rng(seed)
    dom = Box.from_shape((32, 16, 16))
    coarse = [Box((i, j, k), (i + 7, j + 7, k + 7))
              for i in range(0, 32, 8) for j in range(0, 16, 8) for k in range(0, 16, 8)]
    fine = []
    for i in range(0, 32, 8):
        for j in range(0, 32, 8):
            if i == 0 and j < 16:  # four double-length boxes
                fine += [Box((i, j, k), (i + 7, j + 7, k + 15)) for k in (0, 16)]
            else:
                fine += [Box((i, j, k), (i + 7, j + 7, k + 7)) for k in range(0, 32, 8)]
    levels = []
    for idx, (boxes, dx) in enumerate(((coarse, 1.0), (fine, 0.5))):
        level = AMRLevel(idx, BoxArray(boxes), (dx,) * 3)
        for name, scale in (("a", 1.0), ("b", 40.0)):
            level.add_field(name, [Patch(b, scale * make_field(rng, b.shape)) for b in boxes])
        levels.append(level)
    assert len(fine) == 60
    return AMRHierarchy(dom, levels, 2)


#: ``compress_hierarchy`` options the pinned files of
#: :func:`many_patch_hierarchy` are written under.
FILE_CASES = {
    "plain": {},
    "field_bounds": {"field_bounds": {"b": 5e-4}},
    "exclude_covered": {"exclude_covered": True},
}


def tiled_hierarchy() -> AMRHierarchy:
    """One level of 3x3x2 16^3 patches of one field, ``density``."""
    rng, (nx, ny, nz), ps = np.random.default_rng(0), (3, 3, 2), 16
    grids = np.meshgrid(*[np.linspace(0.0, 1.0, ps)] * 3, indexing="ij")
    base = np.sin(6 * grids[0]) * np.cos(5 * grids[1]) + grids[2] ** 2
    boxes, patches = [], []
    for i in range(nx):
        for j in range(ny):
            for k in range(nz):
                box = Box.from_shape((ps,) * 3, lo=(i * ps, j * ps, k * ps))
                boxes.append(box)
                data = base + 0.05 * rng.standard_normal((ps,) * 3) + 0.1 * (i + j + k)
                patches.append(Patch(box, data))
    level = AMRLevel(0, BoxArray(boxes), (1.0,) * 3, {"density": patches})
    domain = Box.from_shape((nx * ps, ny * ps, nz * ps))
    return AMRHierarchy(domain, [level], 2)


def small_hierarchy(n_coarse: int, refined: dict[int, bool], seed: int) -> AMRHierarchy:
    """``n_coarse`` coarse 4^3 boxes in a row; coarse box ``i`` in
    ``refined`` is covered at ratio 2 by one 8^3 box, or by two 4x8x8
    boxes when ``refined[i]`` (two shapes in one level: two groups)."""
    rng = np.random.default_rng(seed)
    coarse = [Box((4 * i, 0, 0), (4 * i + 3, 3, 3)) for i in range(n_coarse)]
    fine = []
    for i, split in sorted(refined.items()):
        if split:
            fine += [Box((8 * i + h, 0, 0), (8 * i + h + 3, 7, 7)) for h in (0, 4)]
        else:
            fine.append(Box((8 * i, 0, 0), (8 * i + 7, 7, 7)))
    levels = []
    for idx, (boxes, dx) in enumerate(((coarse, 1.0), (fine, 0.5))):
        if not boxes:
            break
        level = AMRLevel(idx, BoxArray(boxes), (dx,) * 3)
        for name, scale in (("a", 1.0), ("b", 30.0)):
            level.add_field(name, [
                Patch(b, scale * rng.standard_normal(b.shape).cumsum(axis=0)) for b in boxes
            ])
        levels.append(level)
    return AMRHierarchy(Box.from_shape((4 * n_coarse, 4, 4)), levels, 2)


# ----------------------------------------------------------------------
# Boxes
# ----------------------------------------------------------------------
def _box(draw, ndim: int, lo: tuple[int, int], extent: tuple[int, int]) -> Box:
    low = draw(st.lists(st.integers(*lo), min_size=ndim, max_size=ndim))
    ext = draw(st.lists(st.integers(*extent), min_size=ndim, max_size=ndim))
    return Box(tuple(low), tuple(a + e for a, e in zip(low, ext)))


@st.composite
def box_lists(draw):
    """0-12 boxes of one dimension (2-D twice as often), on a lattice small
    enough that touching boxes (``hi + 1 == lo``), one-cell overlaps and
    repeats are common."""
    ndim = draw(st.sampled_from([1, 2, 2, 3]))
    return [_box(draw, ndim, (-4, 8), (0, 4)) for _ in range(draw(st.integers(0, 12)))]


@st.composite
def windowed_box_lists(draw):
    """A :func:`box_lists` draw as a ``BoxArray`` and a window of the same
    dimension that may reach past it on any side."""
    boxes = draw(box_lists())
    ndim = boxes[0].ndim if boxes else draw(st.integers(1, 3))
    return BoxArray(boxes), _box(draw, ndim, (-2, 6), (0, 6))


# ----------------------------------------------------------------------
# Tag masks and score fields
# ----------------------------------------------------------------------
@st.composite
def tag_masks(draw):
    """1-3-D noise or blob masks, drawn from a seed so examples stay cheap."""
    ndim = draw(st.integers(1, 3))
    side = {1: 48, 2: 20, 3: 10}[ndim]
    shape = tuple(draw(st.lists(st.integers(1, side), min_size=ndim, max_size=ndim)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.sampled_from(["noise", "blobs"])) == "noise":
        return rng.random(shape) < draw(st.floats(0.02, 0.6))
    mask = np.zeros(shape, dtype=bool)
    for _ in range(draw(st.integers(1, 4))):
        centre = [rng.uniform(0, s) for s in shape]
        radius = [rng.uniform(0.5, max(1.0, s / 3)) for s in shape]
        grids = np.ogrid[tuple(slice(0, s) for s in shape)]
        mask |= sum(((g - c) / r) ** 2 for g, c, r in zip(grids, centre, radius)) <= 1.0
    return mask


@st.composite
def score_fields(draw):
    """1-3-D scores, some of shapes no block size divides (10x12x9):
    noise, smooth blobs, or a few levels (quantile ties leave passes
    untagged), drawn from a seed so examples stay cheap."""
    ndim = draw(st.integers(1, 3))
    side = {1: 64, 2: 24, 3: 12}[ndim]
    shape = tuple(draw(st.lists(st.integers(2, side), min_size=ndim, max_size=ndim)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["noise", "blobs", "levels"]))
    if kind == "noise":
        return rng.random(shape)
    if kind == "levels":
        return rng.integers(0, draw(st.integers(2, 5)), shape).astype(float)
    grids = np.ogrid[tuple(slice(0, s) for s in shape)]
    score = np.zeros(shape)
    for _ in range(draw(st.integers(1, 4))):
        centre = [rng.uniform(0, s) for s in shape]
        width = [rng.uniform(0.5, max(1.0, s / 3)) for s in shape]
        score += np.exp(-sum(((g - c) / w) ** 2 for g, c, w in zip(grids, centre, width)))
    return score


# ----------------------------------------------------------------------
# Nesting layouts
# ----------------------------------------------------------------------
def _disjoint_boxes(draw, extent: tuple[int, ...], n: int, margin: int) -> list[Box]:
    """Up to ``n`` disjoint boxes inside ``[-margin, extent + margin)``, in
    draw order."""
    boxes: list[Box] = []
    for _ in range(n):
        lo = [draw(st.integers(-margin, e - 1)) for e in extent]
        hi = [min(l + draw(st.integers(0, 5)), e - 1 + margin) for l, e in zip(lo, extent)]
        box = Box(tuple(lo), tuple(hi))
        if not any(box.intersects(b) for b in boxes):
            boxes.append(box)
    return boxes


@st.composite
def nesting_layouts(draw):
    """``(domain, levels, ratio)``: three box-only levels whose level 1 and
    2 boxes are drawn freely, so some nest and some leave the domain or
    their coarser level."""
    ndim = draw(st.integers(1, 3))
    ratio = draw(st.sampled_from([2, 3]))
    domain = Box.from_shape(tuple(draw(st.integers(2, 6)) for _ in range(ndim)))
    levels = [AMRLevel(0, BoxArray([domain]), (1.0,) * ndim)]
    extent = domain.shape
    for index in (1, 2):
        extent = tuple(e * ratio for e in extent)
        margin = 1 if index == 2 else draw(st.sampled_from([0, 0, 0, 1]))
        boxes = _disjoint_boxes(draw, extent, draw(st.integers(1, 8)), margin)
        levels.append(AMRLevel(index, BoxArray(boxes), (1.0,) * ndim))
    return domain, levels, ratio


# ----------------------------------------------------------------------
# Data hierarchies, their bounds, and selectors
# ----------------------------------------------------------------------
@st.composite
def hierarchies(draw):
    """A :func:`small_hierarchy` of fields ``a`` and ``b``: one to three
    coarse boxes, any of them refined by one or two fine boxes."""
    n_coarse = draw(st.integers(1, 3))
    refined = draw(st.dictionaries(st.integers(0, n_coarse - 1), st.booleans()))
    return small_hierarchy(n_coarse, refined, draw(st.integers(0, 2**16)))


#: The bound a hierarchy is written under, its mode, and a per-field
#: override.
ERROR_BOUNDS = st.sampled_from([1e-3, 1e-2])
MODES = st.sampled_from(["abs", "rel"])
FIELD_BOUNDS = st.sampled_from([None, {"a": 5e-4}])

#: ``compress_hierarchy``'s options beside the hierarchy and the mode.
COMPRESS = st.fixed_dictionaries({
    "codec": st.sampled_from(["sz-lr", "sz-interp"]),
    "error_bound": ERROR_BOUNDS,
    "batch": st.sampled_from(["patch", "level"]),
    "exclude_covered": st.booleans(),
    "fields": st.sampled_from([None, ["a"], ["b", "a"]]),
    "field_bounds": FIELD_BOUNDS,
})

#: Selectors of a :func:`hierarchies` draw in every form a reader is
#: handed, invalid ones included.
LEVELS = st.sampled_from([None, 0, 1, [1, 0], range(2), (5,), np.int64(1), 1.0, set(),
                          True, 0.5, "0"])
FIELDS = st.sampled_from([None, "a", ["a", "b"], ("b",), "zz", [], 3, [1]])
PATCHES = st.sampled_from([None, 0, [0, 2], range(1, 3), np.array([1, 0]), {1}, 2.0,
                           [np.int32(3), 0], np.bool_(True), [float("nan")]])


# ----------------------------------------------------------------------
# Codec runs
# ----------------------------------------------------------------------
def fibonacci(n: int) -> list[int]:
    fib = [1, 1]
    while len(fib) < n:
        fib.append(fib[-1] + fib[-2])
    return fib[:n]


@st.composite
def frequency_vectors(draw, widest: bool = True) -> np.ndarray:
    """Frequency vectors from the corners a tree build can get wrong
    (``widest``: including alphabets of 2**16 symbols)."""
    kinds = ["equal", "ties", "one", "two", "near-2**40", "fibonacci", "any"]
    kind = draw(st.sampled_from(kinds + ["alphabet-2**16"] * widest))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "equal":
        freqs = np.full(draw(st.integers(2, 3000)), draw(st.integers(1, 1 << 40)))
    elif kind == "ties":
        freqs = rng.integers(1, draw(st.integers(2, 5)), draw(st.integers(2, 600)))
    elif kind == "one":
        freqs = np.array([draw(st.integers(1, 1 << 40))])
    elif kind == "two":
        freqs = np.array(draw(st.lists(st.integers(1, 1 << 40), min_size=2, max_size=2)))
    elif kind == "alphabet-2**16":
        freqs = rng.integers(1, draw(st.sampled_from([2, 4])), 1 << 16)  # depth 16-17
    elif kind == "near-2**40":
        freqs = (1 << 40) - rng.integers(0, 8, draw(st.integers(2, 400)))
    elif kind == "fibonacci":  # deeper than MAX_CODE_LENGTH: forces the limiting loop
        fib = np.array(fibonacci(draw(st.integers(18, 88))))
        freqs = rng.permutation(fib * draw(st.integers(1, 3)))
    else:
        freqs = np.array(draw(st.lists(st.integers(1, 10**9), min_size=2, max_size=300)))
    return freqs.astype(np.int64)


_EXTREME = 1 << 57  # beyond what fits beside a 5-bit length in one int64

_MEMBER_KINDS = st.sampled_from(["huf2", "one-symbol", "extreme", "group-a", "group-b", "empty"])


@st.composite
def ragged_runs(draw):
    """Members of one decode call: own-codebook ``HUF2`` blobs (ordinary,
    one-symbol, non-fusable, empty) mixed with ``HUFS`` payloads of two
    different groups; sizes from 1 symbol up, K from 1 to 1024."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    books = {
        "group-a": huffman.SharedCodebook.from_symbols(np.arange(-20, 21)),
        "group-b": huffman.SharedCodebook.from_symbols(
            np.concatenate([np.zeros(50, np.int64), np.arange(-3, 4)])),
    }
    blobs, codebooks, symbols = [], [], []
    for kind in draw(st.lists(_MEMBER_KINDS, min_size=0, max_size=7)):
        n = draw(st.sampled_from([1, 2, 7, 64, 513, 2000, 5000]))
        k = draw(st.sampled_from([1, 3, 8, 33, 256, 1024]))
        if kind in books:
            book = books[kind]
            syms = rng.choice(book.alphabet, size=n)
            blob = huffman.encode_batch(syms[None, :], book, k_streams=k)[0]
        else:
            book = None
            if kind == "empty":
                syms = np.empty(0, dtype=np.int64)
            elif kind == "one-symbol":
                syms = np.full(n, int(rng.integers(-9, 9)), dtype=np.int64)
            elif kind == "extreme":
                pool = np.array([-_EXTREME * 31, -_EXTREME, -1, 0, 5, _EXTREME, _EXTREME * 63])
                syms = rng.choice(pool, size=n)
            else:
                syms = rng.integers(-40, 40, size=n)
            blob = huffman.encode_many([syms], k_streams=k)[0]
        blobs.append(blob)
        codebooks.append(book)
        symbols.append(np.asarray(syms, dtype=np.int64))
    return blobs, codebooks, symbols


@st.composite
def codebook_runs(draw):
    """1-9 shared codebooks: uniform, skewed up to the 16-bit length cap,
    two-symbol or wide."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    books = []
    for _ in range(draw(st.integers(1, 9))):
        kind = draw(st.sampled_from(["uniform", "skewed", "two", "wide"]))
        if kind == "uniform":
            syms = rng.integers(-40, 40, size=int(rng.integers(2, 4000)))
        elif kind == "skewed":  # long codes: up to the 16-bit cap
            syms = rng.geometric(0.08, size=20_000)
        elif kind == "two":
            syms = np.array([3, -3] * 5)
        else:
            syms = rng.integers(-3000, 3000, size=8000)
        books.append(huffman.SharedCodebook.from_symbols(syms))
    return books


#: Shapes of regression members whose row count at ``block_size=4`` falls
#: in each BLAS kernel class: 1 row, 2-300 rows, >= 500 rows. 3-D: with a
#: 4-column design matrix one row rounds apart from a stack of rows (the
#: OpenBLAS build this was checked on does so for 294 rows in 300).
_ROW_CLASSES = {"one": (4, 3, 4), "mid": (8, 8, 12), "many": (32, 32, 32)}


def _member(draw, rng):
    """A random member: ``(data, eb, codec kwargs)``."""
    ndim = draw(st.integers(1, 3))
    edge = {1: (1, 300), 2: (1, 30), 3: (1, 13)}[ndim]
    shape = tuple(draw(st.integers(*edge)) for _ in range(ndim))
    kind = draw(st.sampled_from(["smooth", "rough", "constant"]))
    if kind == "constant":
        data = np.full(shape, float(rng.normal()))
    else:
        data = rng.normal(size=shape)
        for axis in range(ndim) if kind == "smooth" else ():
            data = data.cumsum(axis=axis)
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    eb = draw(st.sampled_from([1e-4, 3e-3, 0.05, 0.7]))
    kwargs = {
        "block_size": draw(st.sampled_from([4, 5, 6, 8, "auto"])),
        "predictor": draw(st.sampled_from(["auto", "lorenzo", "regression"])),
    }
    return data.astype(dtype), eb, kwargs


@st.composite
def mixed_runs(draw):
    """A run of self-contained members, grouped members of one or two
    runs of same-shape members, and regression members in each BLAS row class
    (1 row, 2-300 rows, >= 500 rows), shuffled."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    blobs, shareds = [], []
    for _ in range(draw(st.integers(0, 8))):
        data, eb, kwargs = _member(draw, rng)
        blobs.append(SZLR(**kwargs).compress(data, eb))
        shareds.append(None)
    for _ in range(draw(st.integers(0, 2))):
        data, eb, kwargs = _member(draw, rng)
        n = draw(st.integers(1, 4))
        stack = np.stack([data + i for i in range(n)])
        result = SZLR(**kwargs).compress_batch(stack, [eb * (i + 1) for i in range(n)])
        book = result.codebook
        if book is not None and draw(st.booleans()):
            book = huffman.SharedCodebook.frombytes(book)
        blobs += result.streams
        shareds += [SharedEntropy(book, p) for p in result.payloads] or [None] * n
    for rows in draw(st.lists(st.sampled_from(sorted(_ROW_CLASSES)), max_size=3)):
        data = rng.normal(size=_ROW_CLASSES[rows]).cumsum(axis=0) * rng.choice([1.0, 1e3])
        blobs.append(SZLR(block_size=4, predictor="regression").compress(data, 1e-3))
        shareds.append(None)
    order = rng.permutation(len(blobs))
    return [blobs[i] for i in order], [shareds[i] for i in order]


# ----------------------------------------------------------------------
# Meshes
# ----------------------------------------------------------------------
@st.composite
def mc_cases(draw):
    """A vertex field, 2..14 per axis (not cubic), with NaN holes, an
    optional cell mask, values rounded so that some hit ``iso`` exactly
    (which makes degenerate faces), and arbitrary spacing and origin."""
    shape = tuple(draw(st.lists(st.integers(2, 14), min_size=3, max_size=3)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    field = rng.normal(size=shape)
    if draw(st.booleans()):  # smooth: a surface with large connected sheets
        grids = np.meshgrid(*(np.linspace(-1, 1, n) for n in shape), indexing="ij")
        field = sum(g * g for g in grids) + 0.1 * field
    decimals = draw(st.sampled_from([None, 0, 1]))
    if decimals is not None:
        field = np.round(field, decimals)
    field[rng.random(shape) < draw(st.sampled_from([0.0, 0.05, 0.3]))] = np.nan
    iso = draw(st.sampled_from([0.0, 0.5, 1.0, float(rng.normal())]))
    cells = tuple(n - 1 for n in shape)
    mask = rng.random(cells) < 0.8 if draw(st.booleans()) else None
    spacing = draw(st.one_of(
        st.floats(1e-3, 1e3),
        st.tuples(*[st.floats(1e-3, 1e3)] * 3)))
    origin = draw(st.tuples(*[st.floats(-1e3, 1e3)] * 3))
    return field, iso, dict(spacing=spacing, origin=origin, cell_mask=mask)


@st.composite
def same_shape_meshes(draw):
    """Thousands of copies of one small triangle: integer shifts keep every
    copy's pixel box the same shape, so they form one or two very large
    groups. Depths are drawn per copy, or shared so that every overlap
    is a tie the lowest face index must win."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    h, w = draw(st.integers(8, 96)), draw(st.integers(8, 96))
    axis = draw(st.sampled_from([0, 1, 2]))
    n = draw(st.integers(500, 4000))
    scale = draw(st.sampled_from([0.5, 1.0, 2.5, 4.0]))
    base = rng.uniform(0.0, scale, (3, 3))
    if draw(st.booleans()):  # corners on pixel centres: lattice edges
        base = np.round(base)
    row_axis, col_axis = (a for a in range(3) if a != axis)
    copies = np.repeat(base[None], n, axis=0)
    if draw(st.booleans()):  # mirrored copies: a second group, orientation and shade
        copies[rng.random(n) < 0.5, :, row_axis] *= -1.0
    shift = np.zeros((n, 1, 3))
    shift[:, 0, row_axis] = rng.integers(-4, h + 4, n)
    shift[:, 0, col_axis] = rng.integers(-4, w + 4, n)
    shift[:, 0, axis] = 0.0 if draw(st.booleans()) else rng.uniform(-1, 1, n)
    verts = (copies + shift).reshape(-1, 3)
    faces = np.arange(3 * n).reshape(n, 3)
    lo, hi = np.zeros(3), np.ones(3)
    hi[row_axis], hi[col_axis] = h - 1, w - 1
    bounds = None if draw(st.booleans()) else (lo, hi)
    return TriangleMesh(verts, faces), dict(axis=axis, size=(h, w), bounds=bounds)


# ----------------------------------------------------------------------
# Storage layouts
# ----------------------------------------------------------------------
@st.composite
def extent_layouts(draw):
    """Disjoint extents built from (gap, length) runs, returned shuffled
    so the planner's own sorting is exercised."""
    n = draw(st.integers(min_value=0, max_value=20))
    offset = draw(st.integers(min_value=0, max_value=1000))
    extents = []
    for i in range(n):
        gap = draw(
            st.one_of(
                st.just(0),  # touching runs are common in real layouts
                st.integers(min_value=1, max_value=200),
                st.integers(min_value=1, max_value=200_000),
            )
        )
        length = draw(
            st.one_of(
                st.just(0),  # zero-length extents must be harmless
                st.integers(min_value=1, max_value=5000),
            )
        )
        offset += gap
        extents.append(
            Extent(offset, length, "stream", (0, 0, "f", i), crc32=0)
        )
        offset += length
    draw(st.randoms(use_true_random=False)).shuffle(extents)
    return extents
