"""Records through the compiled G7/K15 panels equal records through the
generic panel.

Every compiled kernel, Frullani integrand and log-tail carries its own
panels (expr), the ones quadrature runs on it, in place of
gauss_kronrod_panel.
Wrapped in a plain function, the same integrand has no panel of its own and
takes the generic one.  The two routes must give the same record in every
field but wall time.
"""

import pytest

from frullani import catalog, engine, expr, quadrature
from frullani.catalog import default_grid, entry_ids, verify_entry
from frullani.engine import FrullaniProblem, evaluate_pipeline
from frullani.expr import compile_family, parse
from frullani.quadrature import integrate_adaptive

# The catalog inputs perfbench/defects.py names: (entry, params, tol).
DEFECT_INPUTS = (
    ("GR-4.324.2", {"a": 2.0, "p": 1.0, "q": 10.0}, None),
    ("R-3.4", {"a": 1.0, "b": 1.414213562}, None),
    ("GR-4.324.2", {"a": 0.5, "p": 1.0, "q": 1.414213562}, None),
    ("R-3.8", {"a": 1.0, "b": 1.414213562}, None),
    ("R-3.4", {"a": 1.0, "b": 2.0}, 1e-8),
    ("GR-4.324.2", {"a": 0.5, "p": 1.0, "q": 2.0}, 1e-8),
)
# One binding per pipeline-kernels family and special kind: (kernel, a, b,
# power), and two whose ((x+1)/x)^x factor leaves f(inf) to the decaying map:
# the first reaches t = 1, the second ends at the 2000-panel cap.
PIPELINE_INPUTS = (
    ("1.5*exp(-x)+0.5", 1.0, 2.0, 1.0),
    ("atan(2.3*x)", 0.7, 3.1, 0.5),
    ("ln(1.2+0.8*exp(-x))", 1.3, 4.0, 2.0),
    ("(x+1.5)^(-1.2)", 2.0, 0.9, 1.0),
    ("((x+0.5)/(x+2.0))^1.5", 1.0, 5.0, 0.3),
    ("(1+4.4/x)^x", 1.0, 2.0, 1.0),
    ("sqrt(x)/(1+sqrt(x))", 0.764035, 2.74109, 0.225619),
    ("ln(1+x)/x", 1.0, 3.0, 1.0),
    ("sin(x)", 1.0, 2.0, 1.0),
    ("1/(1+x^0.1)", 1.0, 2.0, 1.0),
    ("cos(x)/(1+x)", 1.0, 2.0, 1.0),
    ("((x+1)/x)^x*sqrt(x)/(1+sqrt(x))", 0.764035, 2.74109, 0.225619),
    ("cos(x)*((x+1)/x)^x/(1+x)", 1.0, 2.0, 1.0),
)


def _plain(f):
    """f without its compiled panels: quadrature runs the generic panel."""
    return lambda x: f(x)


@pytest.fixture
def generic_panels(monkeypatch):
    """Wrap every integrand, kernel and tail the catalog and the pipeline
    bind in a plain function.  Returns the means of the tails the
    pipeline's compiled families made, each wrapped."""
    bind, compile_family = catalog._bind, engine.compile_family
    tail_means = []

    def plain_bind(entry, params):
        integrand, scales, tail = bind(entry, params)
        return _plain(integrand), scales, _plain(tail)

    def plain_family(expr, names=()):
        bind_family = compile_family(expr, names)

        def plain_roles(params):
            kernel, frullani, tail = bind_family(params)

            def plain_tail(m):
                tail_means.append(m)
                return _plain(tail(m))

            return _plain(kernel), lambda a, b: _plain(frullani(a, b)), plain_tail

        plain_roles.walk = bind_family.walk
        return plain_roles

    monkeypatch.setattr(catalog, "_bind", plain_bind)
    monkeypatch.setattr(engine, "compile_family", plain_family)
    # a kernel the table kept would keep its compiled roles
    engine._kernels.clear()
    return tail_means


def _fields(rec):
    """Every field but wall time, floats as exact bits."""
    out = rec._asdict()
    del out["wall_time"]
    return {k: v.hex() if isinstance(v, float) else v for k, v in out.items()}


def _catalog_records(inputs):
    return [_fields(verify_entry(entry_id, params, tol)) for entry_id, params, tol in inputs]


def _pipeline_records():
    return [
        _fields(evaluate_pipeline(FrullaniProblem(parse(text), a, b, power), 1e-6))
        for text, a, b, power in PIPELINE_INPUTS
    ]


@pytest.fixture(scope="module")
def compiled_records():
    """The records through the compiled panels, computed before any wrapping."""
    grid = [(e, params, None) for e in entry_ids() for params in default_grid(e)]
    return {
        "default grid": _catalog_records(grid),
        "defects": _catalog_records(DEFECT_INPUTS),
        "pipeline": _pipeline_records(),
    }


def test_default_grid_records_match_the_generic_panel(compiled_records, generic_panels):
    grid = [(e, params, None) for e in entry_ids() for params in default_grid(e)]
    assert len(grid) == 60
    assert _catalog_records(grid) == compiled_records["default grid"]


def test_defect_records_match_the_generic_panel(compiled_records, generic_panels):
    assert _catalog_records(DEFECT_INPUTS) == compiled_records["defects"]


def test_pipeline_records_match_the_generic_panel(compiled_records, generic_panels):
    records = _pipeline_records()
    assert records == compiled_records["pipeline"]
    # the Frullani oracle integrated the wrapped tails
    assert len(generic_panels) == sum("oracle=frullani" in r["detail"] for r in records) > 0
    # the inputs reach every ending: a pass on either oracle, a map that
    # reached t = 1, a map at its panel cap and a kernel without a limit
    statuses = [r["status"] for r in records]
    assert {"PASS", "ORACLE_FAILED", "NOT_APPLICABLE"} <= set(statuses)
    for ending in ("oracle=frullani", "oracle=decaying map", "reached t = 1",
                   "panel cap of 2000 panels reached"):
        assert any(ending in r["detail"] for r in records)


def test_default_grid_runs_no_generic_panel(monkeypatch):
    # so the default-grid comparison above sets two routes side by side:
    # every panel of the compiled route is a compiled one
    generic = quadrature.gauss_kronrod_panel
    calls = []
    monkeypatch.setattr(
        quadrature, "gauss_kronrod_panel", lambda f, lo, hi: calls.append(lo) or generic(f, lo, hi)
    )
    for entry_id in entry_ids():
        for params in default_grid(entry_id):
            assert verify_entry(entry_id, params).status == "PASS"
    assert calls == []


def test_a_shape_compiles_only_the_panels_that_run():
    expr._panel_maker.cache_clear()
    tree = parse("exp(-1.25*x)*(3.5+x)")
    integrands = [compile_family(tree)({})[1](a, 2.0) for a in (1.0, 3.0)]
    assert expr._panel_maker.cache_info().currsize == 0
    for integrand in integrands:
        assert integrate_adaptive(integrand, 0.0, 1.0, 1e-10).converged
    # both bindings ran the one plain panel of the shape's integrand,
    # compiled once, and neither compiled the graded one
    info = expr._panel_maker.cache_info()
    assert (info.currsize, info.misses, info.hits) == (1, 1, 1)


def test_each_role_carries_only_the_panels_quadrature_runs():
    # integrate_adaptive runs every role's panel, and the graded head the
    # Frullani integrand's graded one; integrate_decaying runs none
    expr._panel_maker.cache_clear()
    kernel, frullani, tail = compile_family(parse("exp(-1.25*x)*(3.5+x)"))({})
    roles = {"kernel": kernel, "integrand": frullani(1.0, 2.0), "tail": tail(0.0)}
    carried = {role: [name for name in dir(f) if name.endswith("panel")] for role, f in roles.items()}
    assert carried == {"kernel": ["panel"], "integrand": ["graded_panel", "panel"], "tail": ["panel"]}
    # every panel of one shape fills the four _panel_maker entries its
    # cache bound assumes
    for role, names in carried.items():
        for name in names:
            assert getattr(roles[role], name)() is not None
    assert expr._panel_maker.cache_info().currsize == 4
