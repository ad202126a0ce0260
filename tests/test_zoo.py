"""Zoo classes: standard modules, duals, rank-one presets, catalogs."""

import json
import random

import pytest

from ellhom import (
    Catalog,
    CharElement,
    GeometricDatum,
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
    sl2_presets,
    standard_module_class,
    weyl_character,
)
from ellhom.rootsystem import Frozen


def test_compact_irreducible_examples(a1, a2):
    ctx1 = compact_context(a1)
    triv = compact_irreducible((0,), ctx1)
    assert triv.euler == CharElement(1, {(0,): 1, (2,): -1})
    two = compact_irreducible((1,), ctx1)
    assert two.euler == CharElement(1, {(-1,): 1, (3,): -1})
    ctx2 = compact_context(a2)
    vm = compact_irreducible((1, 0), ctx2)
    assert len(vm.euler.terms) == 6
    assert vm.euler == half_denominator(a2) * weyl_character((1, 0), a2)
    assert vm.homology is not None and euler_class(vm.homology) == vm.euler
    with pytest.raises(ValueError, match="dominant"):
        compact_irreducible((-1, 0), ctx2)


def test_compact_irreducible_homology_matches_oracle(b2):
    ctx = compact_context(b2)
    vm = compact_irreducible((1, 1), ctx)
    oracle = koszul_n_homology((1, 1), b2.positive_roots, b2)
    for a, b in zip(vm.homology.classes, oracle.classes):
        assert a == b


def test_standard_closed_class_sl2_form():
    mods = sl2_presets(3)
    ds = {m.label: m for m in mods}
    assert ds["DS+2"].euler == CharElement(1, {(2,): -1})
    assert ds["DS-3"].euler == CharElement(1, {(-3,): -1})
    assert ds["PS0"].euler.is_zero()
    assert ds["PS0"].provenance == "standard_open"


def test_standard_open_orbit_pairs_to_zero():
    mods = sl2_presets(2)
    ctx = mods[0].ctx
    zero = next(m for m in mods if m.provenance == "standard_open")
    for m in mods:
        assert elliptic_pairing(zero.euler, m.euler, ctx) == 0


def test_a1_compact_degenerate_standard_class(a1):
    # closed-orbit sum over the full Weyl group with s = |R+_k| = 1 and the
    # lowest weight -lam reproduces the compact irreducible Euler class
    ctx = compact_context(a1)
    datum = GeometricDatum(closed=True, v_weight=(-1,), s=1, ctx=ctx)
    assert standard_module_class(datum) == CharElement(1, {(-1,): 1, (3,): -1})


def test_sl2_orthogonality():
    mods = sl2_presets(3)
    ctx = mods[0].ctx
    closed = [m for m in mods if m.provenance == "standard_closed"]
    for a in closed:
        for b in closed:
            expected = 1 if a.label == b.label else 0
            assert elliptic_pairing(a.euler, b.euler, ctx) == expected
            assert homological_pairing(a.homology, b.homology, ctx) == expected


def test_dual_standard_example_sl2():
    mods = sl2_presets(1)
    ctx = mods[0].ctx
    datum = GeometricDatum(closed=True, v_weight=(1,), s=0, ctx=ctx)
    direct = dual_standard_class(datum)
    # (-1)^s e^{-w v} e^{rho + w rho} with trivial W0: e^{2 rho - v} = e^{(1,)}
    assert direct == CharElement(1, {(1,): 1})
    assert direct == dual_class(standard_module_class(datum), ctx)


@pytest.mark.parametrize("token", ["A1", "A2", "B2"])
def test_dual_formulas_agree_seeded(token):
    rs = parse_type(token)
    ctx = compact_context(rs)
    rng = random.Random(20260808)
    for _ in range(50):
        v = tuple(rng.randint(-3, 3) for _ in range(rs.rank))
        datum = GeometricDatum(closed=True, v_weight=v, s=rng.randint(0, 4), ctx=ctx)
        std = standard_module_class(datum)
        assert dual_standard_class(datum) == dual_class(std, ctx)
        # double dual is the original class
        assert dual_class(dual_class(std, ctx), ctx) == std


def test_dual_of_open_orbit_is_zero(a1):
    ctx = compact_context(a1)
    datum = GeometricDatum(closed=False, v_weight=(0,), s=1, ctx=ctx)
    assert dual_standard_class(datum).is_zero()


def test_singular_closed_orbit_class_cancels(b2):
    # when v - rho is fixed by a W0 reflection the signed sum collapses;
    # the uniform formula returns the zero class rather than refusing
    from ellhom import custom_context

    ctx = custom_context(b2, [b2.simple_reflection(0)])
    datum = GeometricDatum(closed=True, v_weight=(1, 2), s=1, ctx=ctx)
    assert standard_module_class(datum).is_zero()


def test_closed_orbit_classes_satisfy_antisym(b2):
    ctx = compact_context(b2)
    rng = random.Random(5)
    for _ in range(10):
        v = tuple(rng.randint(-2, 2) for _ in range(2))
        xi = standard_module_class(
            GeometricDatum(closed=True, v_weight=v, s=rng.randint(0, 2), ctx=ctx)
        )
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
    ctx = compact_context(a1)
    hom = koszul_n_homology((1,), a1.positive_roots, a1)
    with pytest.raises(ValueError, match="alternate"):
        VirtualModule(label="bad", ctx=ctx, euler=CharElement.one(1), homology=hom)
    with pytest.raises(ValueError, match="provenance"):
        VirtualModule(label="bad", ctx=ctx, euler=CharElement.one(1), provenance="mystery")


def test_geometric_datum_validates_weight_rank_and_s(a2):
    ctx = compact_context(a2)
    with pytest.raises(ValueError, match="fiber weight rank does not match the context"):
        GeometricDatum(closed=True, v_weight=(1,), s=0, ctx=ctx)
    with pytest.raises(ValueError, match="s must be nonnegative"):
        GeometricDatum(closed=False, v_weight=(1, 0), s=-1, ctx=ctx)


def test_records_refuse_assignment(a1):
    ctx = compact_context(a1)
    records = [
        (a1.simple_reflection(0), "length"),
        (ctx.w0, "elements"),
        (ctx, "positive_system"),
        (GeometricDatum(closed=True, v_weight=(1,), s=0, ctx=ctx), "s"),
        (compact_irreducible((1,), ctx), "label"),
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
    from ellhom import custom_context

    ctx = custom_context(b2, [b2.simple_reflection(0)])
    assert ctx.w0_order == 2
    datum = GeometricDatum(closed=True, v_weight=(2, 1), s=1, ctx=ctx)
    vm = VirtualModule(label="std", ctx=ctx, euler=standard_module_class(datum))
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
