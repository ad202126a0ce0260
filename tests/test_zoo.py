"""Zoo classes: standard modules, duals, rank-one presets, catalogs."""

import json
import random

import pytest

from ellhom import (
    Catalog,
    CharElement,
    PairContext,
    VirtualModule,
    check_antisym_i,
    compact_catalog,
    compact_context,
    compact_irreducible,
    dual_class,
    dual_standard_class,
    elliptic_pairing,
    euler_class,
    half_denominator,
    homological_pairing,
    kostant_homology,
    koszul_n_homology,
    parse_type,
    sl2_catalog,
    standard_module_class,
    subgroup_from_generators,
    weyl_character,
)
from ellhom.rootsystem import Frozen


def test_compact_irreducible_examples(a1, a2):
    triv = compact_irreducible((0,), a1)
    assert triv.euler == CharElement(1, {(0,): 1, (2,): -1})
    two = compact_irreducible((1,), a1)
    assert two.euler == CharElement(1, {(-1,): 1, (3,): -1})
    vm = compact_irreducible((1, 0), a2)
    assert len(vm.euler.terms) == 6
    assert vm.euler == half_denominator(a2) * weyl_character((1, 0), a2)
    assert vm.homology is not None and euler_class(vm.homology) == vm.euler
    with pytest.raises(ValueError, match="dominant"):
        compact_irreducible((-1, 0), a2)


def test_compact_irreducible_homology_matches_oracle(b2):
    vm = compact_irreducible((1, 1), b2)
    oracle = koszul_n_homology((1, 1), b2.positive_roots, b2)
    for a, b in zip(vm.homology.classes, oracle.classes):
        assert a == b


def test_standard_closed_class_sl2_form():
    ds = {m.label: m for m in sl2_catalog(3).modules}
    assert ds["DS+2"].euler == CharElement(1, {(2,): -1})
    assert ds["DS-3"].euler == CharElement(1, {(-3,): -1})
    assert ds["PS0"].euler.is_zero()
    assert ds["PS0"].provenance == "standard_open"


def test_standard_open_orbit_pairs_to_zero():
    cat = sl2_catalog(2)
    zero = next(m for m in cat.modules if m.provenance == "standard_open")
    for m in cat.modules:
        assert elliptic_pairing(zero.euler, m.euler, cat.context) == 0


def test_a1_compact_degenerate_standard_class(a1):
    # closed-orbit sum over the full Weyl group with s = |R+_k| = 1 and the
    # lowest weight -lam reproduces the compact irreducible Euler class
    ctx = compact_context(a1)
    assert standard_module_class((-1,), 1, ctx) == CharElement(1, {(-1,): 1, (3,): -1})


def test_sl2_orthogonality():
    cat = sl2_catalog(3)
    ctx = cat.context
    closed = [m for m in cat.modules if m.provenance == "standard_closed"]
    for a in closed:
        for b in closed:
            expected = 1 if a.label == b.label else 0
            assert elliptic_pairing(a.euler, b.euler, ctx) == expected
            assert homological_pairing(a.homology, b.homology, ctx) == expected


def test_dual_standard_example_sl2():
    ctx = sl2_catalog(1).context
    direct = dual_standard_class((1,), 0, ctx)
    # (-1)^s e^{-w v} e^{rho + w rho} with trivial W0: e^{2 rho - v} = e^{(1,)}
    assert direct == CharElement(1, {(1,): 1})
    assert direct == dual_class(standard_module_class((1,), 0, ctx), ctx)


@pytest.mark.parametrize("token", ["A1", "A2", "B2"])
def test_dual_formulas_agree_seeded(token):
    rs = parse_type(token)
    ctx = compact_context(rs)
    rng = random.Random(20260808)
    for _ in range(50):
        v = tuple(rng.randint(-3, 3) for _ in range(rs.rank))
        s = rng.randint(0, 4)
        std = standard_module_class(v, s, ctx)
        assert dual_standard_class(v, s, ctx) == dual_class(std, ctx)
        # double dual is the original class
        assert dual_class(dual_class(std, ctx), ctx) == std


def test_singular_closed_orbit_class_cancels(b2):
    # when v - rho is fixed by a W0 reflection the signed sum collapses;
    # the uniform formula returns the zero class rather than refusing
    ctx = PairContext(b2, subgroup_from_generators(b2, [b2.simple_reflection(0)]))
    assert standard_module_class((1, 2), 1, ctx).is_zero()


def test_closed_orbit_classes_satisfy_antisym(b2):
    ctx = compact_context(b2)
    rng = random.Random(5)
    for _ in range(10):
        v = tuple(rng.randint(-2, 2) for _ in range(2))
        xi = standard_module_class(v, rng.randint(0, 2), ctx)
        for w in ctx.w0:
            assert check_antisym_i(xi, w, ctx)


def test_unequal_rank_catalog_is_a_usage_error(tmp_path, capsys):
    # every context is equal rank: a catalog file saying otherwise is refused
    from ellhom.cli import main

    path = tmp_path / "cat.json"
    sl2_catalog(1).save(path)
    data = json.loads(path.read_text())
    assert data["context"]["equal_rank"] is True
    data["context"]["equal_rank"] = False
    path.write_text(json.dumps(data))
    with pytest.raises(ValueError, match="equal-rank"):
        Catalog.load(path)
    assert main(["pairing", "--catalog", str(path), "--kind", "elliptic"]) == 2
    assert "only equal-rank contexts" in capsys.readouterr().err


def test_virtual_module_validates_homology(a1):
    hom = koszul_n_homology((1,), a1.positive_roots, a1)
    with pytest.raises(ValueError, match="alternate"):
        VirtualModule(label="bad", euler=CharElement.one(1), homology=hom)
    with pytest.raises(ValueError, match="provenance"):
        VirtualModule(label="bad", euler=CharElement.one(1), provenance="mystery")


def test_standard_module_class_refuses_a_fiber_weight_of_another_rank(a2):
    ctx = compact_context(a2)
    for v in ((1,), (1, 0, 0)):
        for formula in (standard_module_class, dual_standard_class):
            with pytest.raises(ValueError, match="rank mismatch between Weyl element and weight"):
                formula(v, 0, ctx)


def test_records_refuse_assignment(a1):
    ctx = compact_context(a1)
    records = [
        (a1.simple_reflection(0), "length"),
        (ctx.w0, "elements"),
        (ctx, "positive_system"),
        (compact_irreducible((1,), a1), "label"),
        (compact_catalog(a1, 1), "modules"),
        (kostant_homology((1,), a1), "terms"),
    ]
    for record, name in records:
        value = getattr(record, name)
        with pytest.raises(AttributeError) as refusal:
            setattr(record, name, value)
        if isinstance(record, Frozen):  # WeylElement, a namedtuple, keeps Python's message
            assert str(refusal.value) == f"{type(record).__name__} is immutable; cannot set {name!r}"
        assert getattr(record, name) is value


def test_dual_of_provenance_is_a_usage_error(tmp_path, capsys):
    # no code produces "dual_of", so a catalog file carrying it is refused
    from ellhom.cli import main

    path = tmp_path / "cat.json"
    sl2_catalog(1).save(path)
    data = json.loads(path.read_text())
    data["modules"][0]["provenance"] = "dual_of"
    path.write_text(json.dumps(data))
    assert main(["pairing", "--catalog", str(path), "--kind", "elliptic"]) == 2
    assert "unknown provenance 'dual_of'" in capsys.readouterr().err


def test_catalog_files_are_deterministic(tmp_path):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    sl2_catalog(2).save(p1)
    sl2_catalog(2).save(p2)
    assert p1.read_bytes() == p2.read_bytes()
    data = json.loads(p1.read_text())
    assert set(data) == {"context", "modules"}
    assert all(set(m) == {"label", "provenance", "euler", "homology"} for m in data["modules"])


def test_compact_catalog(b2, tmp_path):
    cat = compact_catalog(b2, 1)
    assert len(cat.modules) == 4
    path = tmp_path / "b2.json"
    cat.save(path)
    reloaded = Catalog.load(path)
    for a, b in zip(cat.modules, reloaded.modules):
        assert a.euler == b.euler
        assert a.homology == b.homology


def test_catalog_with_user_supplied_w0(b2, tmp_path):
    # W0 enters as an explicit generator list, is closed and validated, and
    # survives the catalog file format; here W0 = <s_0> of order 2 in W(B2)
    ctx = PairContext(b2, subgroup_from_generators(b2, [b2.simple_reflection(0)]))
    assert ctx.w0_order == 2
    vm = VirtualModule(label="std", euler=standard_module_class((2, 1), 1, ctx))
    assert len(vm.euler.terms) == 2  # two-element W0 sum
    cat = Catalog(context=ctx, modules=(vm,))
    path = tmp_path / "w0.json"
    cat.save(path)
    reloaded = Catalog.load(path)
    assert reloaded.context.w0_order == 2
    m = reloaded.modules[0]
    assert m.euler == vm.euler
    assert elliptic_pairing(m.euler, m.euler, reloaded.context) == elliptic_pairing(
        vm.euler, vm.euler, ctx
    )
