"""Source hygiene: no library module imports a name it never uses, no
module-level private function or class goes unreferenced, every public
name of the library is reached by the library itself or by the
benchmark, one elimination engine serves every matrix, only the pinned
functions of algebra.py read the dense structure tables, one Coboundary
class owns the cochain coordinates, only delta_matrix walks the
coboundary terms in cohomology and only _z_rows and _b_rows take a row
space there, the CLI builds no series of its own, the
writers of defects, grading violations and series build no Fraction, and
main alone loads the algebra and writes a report's header.

A stdlib stand-in for a linter's unused-import and dead-code rules.  The
package __init__ is skipped by the import check: its imports are the
public re-exports.  It is skipped as a reference too, since a re-export
reaches nothing; a name that only the tests call belongs in
tests/oracles.py.
"""

import ast
import pathlib
import re
from collections import Counter, defaultdict

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "superleibniz"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            notes = [a.annotation for a in ast.walk(node.args)
                     if isinstance(a, ast.arg)] + [node.returns]
        elif isinstance(node, ast.AnnAssign):
            notes = [node.annotation]
        else:
            continue
        # a quoted annotation such as -> "Cochain" names what it uses
        for note in notes:
            for c in ast.walk(note) if note is not None else ():
                if isinstance(c, ast.Constant) and isinstance(c.value, str):
                    used.update(n.id for n in ast.walk(ast.parse(c.value, mode="eval"))
                                if isinstance(n, ast.Name))
    return [f"line {line}: {name}" for name, line in sorted(imported.items(),
                                                            key=lambda kv: kv[1])
            if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_import_is_reported():
    source = ("from fractions import Fraction\nimport itertools\n"
              "def f() -> 'Fraction':\n    pass\n")
    assert unused_imports(source) == ["line 2: itertools"]


def unreferenced_privates(sources: dict[str, str]) -> list[str]:
    """The module-level private functions and classes, as 'file: name',
    that no source in sources names (a definition is not a reference)."""
    defined, used = [], set()
    for name, source in sources.items():
        tree = ast.parse(source)
        defined += [f"{name}: {node.name}" for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                         ast.ClassDef))
                    and node.name.startswith("_") and not node.name.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return [d for d in defined if d.split(": ")[1] not in used]


def test_no_unreferenced_private_helpers():
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    assert unreferenced_privates(sources) == []


def test_unreferenced_private_helper_is_reported():
    sources = {"a.py": ("def _used():\n    pass\n\n"
                        "def _left_behind():\n    pass\n\n"
                        "class _Gone:\n    pass\n"),
               "b.py": "from a import _used\nx = _used()\n"}
    assert unreferenced_privates(sources) == ["a.py: _left_behind", "a.py: _Gone"]


# A dotted string such as "LeibnizSuperalgebra.check_grading" names its parts:
# bench/spans.py names the functions it wraps that way.
_DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")

# Public names no library or benchmark code reaches, each with its reason.
PUBLIC_EXEMPT = {
    "fileio.py: module_to_doc": "the writer half of the module-file codec, "
    "whose byte-exact round trip README documents; it is built on fileio's "
    "private table codec",
}


def _names(node: ast.AST) -> Counter:
    """Bare names, attribute names and the parts of dotted strings: what
    reaches a module-level function or class."""
    found = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            found[n.id] += 1
        elif isinstance(n, ast.Attribute):
            found[n.attr] += 1
        elif (isinstance(n, ast.Constant) and isinstance(n.value, str)
              and _DOTTED.fullmatch(n.value)):
            found.update(n.value.split("."))
    return found


def _method_refs(node: ast.AST) -> Counter:
    """Attribute accesses .name and whole dotted strings "Class.method":
    what reaches a method.  A bare name or a plain string does not, so a
    local variable or a JSON key never keeps a method alive."""
    found = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Attribute):
            found[n.attr] += 1
        elif (isinstance(n, ast.Constant) and isinstance(n.value, str)
              and "." in n.value and _DOTTED.fullmatch(n.value)):
            found[n.value] += 1
    return found


def unreferenced_publics(defined: dict[str, str], readers: dict[str, str]) -> list[str]:
    """The public module-level functions and classes of defined, and the
    non-dunder methods of its classes, as 'file: name' or 'file:
    Class.method', that no source in readers reaches outside the name's
    own definition (see _names and _method_refs)."""
    trees = [ast.parse(source) for source in readers.values()]
    used = sum(map(_names, trees), Counter())
    reached = sum(map(_method_refs, trees), Counter())
    found = []
    for name, source in defined.items():
        for node in ast.parse(source).body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            short = node.name
            if not short.startswith("_") and used[short] <= _names(node)[short]:
                found.append(f"{name}: {short}")
            if not isinstance(node, ast.ClassDef):
                continue
            for m in node.body:
                if (isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not m.name.startswith("__")):
                    label = f"{node.name}.{m.name}"
                    if reached[m.name] + reached[label] <= _method_refs(m)[m.name]:
                        found.append(f"{name}: {label}")
    return found


def test_every_public_name_is_reached_by_the_library_or_the_benchmark():
    defined = {p.name: p.read_text(encoding="utf-8") for p in MODULES}
    bench = {f"bench/{p.name}": p.read_text(encoding="utf-8")
             for p in sorted((ROOT / "bench").glob("*.py"))}
    stray = unreferenced_publics(defined, {**defined, **bench})
    assert [s for s in stray if s not in PUBLIC_EXEMPT] == []
    assert sorted(PUBLIC_EXEMPT) == sorted(s for s in stray if s in PUBLIC_EXEMPT)


def test_unreferenced_public_name_is_reported():
    defined = {"a.py": ("def used():\n    pass\n\n"
                        "def left_behind():\n    return left_behind()\n\n"
                        "class Kept:\n"
                        "    def named(self):\n        pass\n\n"
                        "    def _helper(self):\n        return self._helper()\n\n"
                        "    def __repr__(self):\n        return ''\n")}
    caller = {"b.py": "from a import Kept, used\nused()\nKept().named()\n"}
    targets = {"c.py": "TARGETS = (('a', 'Kept.named'), ('a', 'left_behind'))\n"}
    assert unreferenced_publics(defined, {**defined, **caller}) \
        == ["a.py: left_behind", "a.py: Kept._helper"]
    assert unreferenced_publics(defined, {**defined, **targets}) \
        == ["a.py: used", "a.py: Kept._helper"]
    # a bare name, a plain string or another class's dotted string is no
    # method call; the names still reach the module-level function
    lookalikes = {"d.py": "named = used = 1\ndoc = {'named': 'used'}\nx = 'Other.named'\n"}
    assert unreferenced_publics(defined, {**defined, **lookalikes}) \
        == ["a.py: left_behind", "a.py: Kept", "a.py: Kept.named", "a.py: Kept._helper"]


def nodes_by_function(source: str):
    """(where, node) for each node of source in walk order, where the
    function that holds it (as Class.method or name, a nested one as
    outer.inner; '' at module level); def and class statements are not
    yielded themselves."""
    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                yield from visit(child, f"{where}.{child.name}".lstrip("."))
            else:
                yield where, child
                yield from visit(child, where)

    return visit(ast.parse(source), "")


def scaling_sites(source: str) -> list[str]:
    """The functions (as Class.method or name) that call scale_to_ints,
    once per call."""
    return [where for where, n in nodes_by_function(source)
            if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
            and n.func.id == "scale_to_ints"]


def test_series_terms_are_scaled_in_one_place():
    # a deformation or an isomorphism holds its terms scaled once, as they
    # enter the series; nothing rescans them per order or per check
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    assert not any("mu_ints" in _names(ast.parse(s)) for s in sources.values())
    assert scaling_sites(sources["deformation.py"]) == ["Series.__init__"]


# every call of scale_to_ints in the library: the algebra's integral form
# (read by check_leibniz, the unit of every series and the adjoint module's
# structure), the semidirect table of the module axioms, the structure of
# any other module, and the terms of a series built from cochains
SCALING_SITES = ["algebra.py: LeibnizSuperalgebra.integral",
                 "algebra.py: SuperBimodule.scaled",
                 "algebra.py: SuperBimodule.check_axioms",
                 "deformation.py: Series.__init__"]


def test_every_scaling_site_is_pinned():
    # a new scan of the Fraction structure tables fails here first
    assert [f"{p.name}: {site}" for p in MODULES
            for site in scaling_sites(p.read_text(encoding="utf-8"))] == SCALING_SITES


def test_scaling_sites_are_reported():
    source = ("def f(x):\n    return scale_to_ints(x)\n\n"
              "class A:\n    def g(self):\n        return [scale_to_ints(y) for y in z]\n")
    assert scaling_sites(source) == ["f", "A.g"]


def dense_readers(source: str) -> list[str]:
    """The functions (as Class.method or name, in the order they are
    defined) that read an attribute named table, left or right: the dense
    Fraction structure tables."""
    return list(dict.fromkeys(
        where for where, n in nodes_by_function(source)
        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
        and n.attr in ("table", "left", "right")))


# the readers of the dense tables in algebra.py: the accessors and
# equality, the two scans into the int form, the semidirect table and the
# adjoint module that share them, the associative product, and the
# associative grading check, which hands its table to LeibnizSuperalgebra;
# every other check (grading, Leibniz, is_lie, the module axioms) reads
# the int form
DENSE_READERS = ["LeibnizSuperalgebra.bracket", "LeibnizSuperalgebra.integral",
                 "LeibnizSuperalgebra.__eq__", "SuperBimodule.scaled",
                 "SuperBimodule.__eq__", "semidirect_table",
                 "AssociativeSuperalgebra.mul_vec", "AssociativeSuperalgebra.check_grading",
                 "adjoint_module"]


def test_every_reader_of_the_dense_tables_is_pinned():
    # a check that goes back to scanning the Fraction tables fails here first
    assert dense_readers((SRC / "algebra.py").read_text(encoding="utf-8")) == DENSE_READERS


def test_dense_readers_are_reported():
    source = ("class A:\n    def __init__(self, t):\n        self.table = t\n\n"
              "    def check(self):\n        return [v for row in self.table for v in row]\n\n"
              "def f(mod):\n    def inner():\n        return mod.left, mod.right\n"
              "    return inner\n\n"
              "def g(x):\n    return x.integral, x.scaled, 'table', table\n")
    assert dense_readers(source) == ["A.check", "f.inner"]


def label_scans(source: str) -> list[int]:
    """The lines that call .index on something named labels (labels.index,
    self.labels.index, space.labels.index): a linear scan of a basis."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "index"
            and ((isinstance(node.func.value, ast.Name) and node.func.value.id == "labels")
                 or (isinstance(node.func.value, ast.Attribute)
                     and node.func.value.attr == "labels"))]


def test_labels_resolve_through_the_space_index_alone():
    # SuperSpace.index is one dict lookup; labels.index walks the basis
    # for every label a file names
    for p in sorted(SRC.glob("*.py")):
        assert label_scans(p.read_text(encoding="utf-8")) == [], p.name


def test_label_scans_are_reported():
    source = ("i = labels.index(x)\nj = self.labels.index(y)\n"
              "k = space.index(z)\nm = names.index(w)\n")
    assert label_scans(source) == [1, 2]


def elimination_sites(sources: dict[str, str]) -> list[str]:
    """'file: name' for each module-level definition that names _insert,
    the one elimination step, other than its own ('<module>' for any other
    module-level statement, an import included); nested functions count
    as the definition that holds them."""
    sites = []
    for name, source in sources.items():
        for node in ast.parse(source).body:
            label = getattr(node, "name", "<module>")
            if label != "_insert" and any(
                    (isinstance(n, ast.Name) and n.id == "_insert")
                    or (isinstance(n, ast.Attribute) and n.attr == "_insert")
                    or (isinstance(n, ast.alias) and n.name == "_insert")
                    for n in ast.walk(node)):
                sites.append(f"{name}: {label}")
    return sites


def test_one_elimination_engine():
    # rank, kernels, solves and bases all go through rref; a rank-only
    # elimination beside it would be a second engine
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    assert elimination_sites(sources) == ["linalg.py: rref", "linalg.py: extend_to_basis"]


def test_elimination_sites_are_reported():
    sources = {"a.py": ("def _insert(row, pivots):\n    return _insert(row, pivots)\n\n"
                        "def rank_only(m):\n    def step(r):\n        return _insert(r, {})\n"
                        "    return step\n\nalias = linalg._insert\n"),
               "b.py": "from a import _insert\n"}
    assert elimination_sites(sources) == ["a.py: rank_only", "a.py: <module>", "b.py: <module>"]


def position_readers(sources: dict[str, str]) -> list[str]:
    """The files, other than cohomology.py, that name _offsets (as a bare
    name, an attribute or an imported name): the cochain coordinate
    encoding has one owner, cohomology.Coboundary."""
    return [name for name, source in sources.items() if name != "cohomology.py" and any(
        (isinstance(n, ast.Name) and n.id == "_offsets")
        or (isinstance(n, ast.Attribute) and n.attr == "_offsets")
        or (isinstance(n, ast.alias) and n.name == "_offsets")
        for n in ast.walk(ast.parse(source)))]


def cohomology_imports(source: str) -> list[str]:
    """The names a library module imports from .cohomology, sorted."""
    return sorted(alias.name for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.ImportFrom) and node.module == "cohomology"
                  and node.level == 1 for alias in node.names)


def term_walkers(source: str) -> list[str]:
    """The definitions of a module that name coboundary_terms outside its
    import: a module-level function by its name, a method as
    'Class.method', any other module-level statement as '<module>';
    nested functions count as the definition that holds them."""
    sites = []
    for node in ast.parse(source).body:
        members = ([(f"{node.name}.{getattr(m, 'name', '<class>')}", m) for m in node.body]
                   if isinstance(node, ast.ClassDef) else
                   [(getattr(node, "name", "<module>"), node)])
        sites += [label for label, member in members if any(
            (isinstance(n, ast.Name) and n.id == "coboundary_terms")
            or (isinstance(n, ast.Attribute) and n.attr == "coboundary_terms")
            for n in ast.walk(member))]
    return sites


def test_one_owner_of_the_cochain_coordinates():
    # the library and the tests reach delta's coordinates through
    # Coboundary.layout, coordinate and pair
    paths = sorted(SRC.glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    assert position_readers({p.name: p.read_text(encoding="utf-8") for p in paths}) == []


def test_only_delta_matrix_walks_the_coboundary_terms_in_cohomology():
    # the benchmark's delta_matrix span then covers the whole walk
    source = (SRC / "cohomology.py").read_text(encoding="utf-8")
    assert term_walkers(source) == ["delta_matrix"]


def test_deformation_takes_only_the_coboundary_from_cohomology():
    # deformation hands a right-hand side to Coboundary.preimage and adds
    # the term it returns; no layout, denominator or matrix crosses over
    deformation = (SRC / "deformation.py").read_text(encoding="utf-8")
    assert cohomology_imports(deformation) == ["Coboundary", "DEFAULT_MAX_ARITY"]


def test_position_readers_and_cohomology_imports_are_reported():
    sources = {"cohomology.py": "def _offsets():\n    pass\n",
               "a.py": "from .cohomology import _offsets\n",
               "b.py": "import cohomology\nx = cohomology._offsets\n",
               "c.py": "x = '_offsets'\n"}
    assert position_readers(sources) == ["a.py", "b.py"]
    source = ("from .cohomology import DEFAULT_MAX_ARITY, delta_matrix\n"
              "from .linalg import solve\nfrom superleibniz.cohomology import Coboundary\n")
    assert cohomology_imports(source) == ["DEFAULT_MAX_ARITY", "delta_matrix"]


def test_term_walkers_are_reported():
    source = ("from .cochain import coboundary_terms\n\n"
              "def delta_matrix():\n    return list(coboundary_terms())\n\n"
              "class Coboundary:\n    walk = cochain.coboundary_terms\n\n"
              "    def matrix(self):\n        return coboundary_terms()\n\n"
              "    def pair(self):\n        return 'coboundary_terms'\n\n"
              "def helper():\n    def inner():\n        return coboundary_terms\n"
              "    return inner\n\nterms = coboundary_terms\n")
    assert term_walkers(source) == ["delta_matrix", "Coboundary.<class>", "Coboundary.matrix",
                                    "helper", "<module>"]


# Series.truncated, .appended and .add take one argument and Series.append
# two; list.append takes one.  Every .add counts: Series.add and set.add
# look alike, and the CLI has no set to add to
_SERIES_BUILDERS = {"truncated": 0, "appended": 0, "add": 0, "append": 2}


def series_builders(source: str) -> list[int]:
    """The lines that call a method building a series: .truncated,
    .appended or .add, or .append with a series' argument count."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr in _SERIES_BUILDERS
                  and len(node.args) >= _SERIES_BUILDERS[node.func.attr])


def test_the_cli_writes_the_series_the_library_returned():
    # a verb saves and reports the deformation or isomorphism the library
    # certified; rebuilding one in the CLI would be a second, unchecked path
    assert series_builders((SRC / "cli.py").read_text(encoding="utf-8")) == []


def test_series_builders_are_reported():
    source = ("jet = d.truncated(2).appended(mu)\nlines.append(x)\n"
              "s.add([(1, den, table)])\nd.add(terms)\ns.append(1, vectors)\n"
              "s.add([(r, d, t) for r, d, t in terms])\nseen.add(x)\n")
    assert series_builders(source) == [1, 1, 3, 4, 5, 6, 7]


def called_names(source: str) -> dict[str, Counter]:
    """Per function (as Class.method or name, a nested one as outer.inner),
    the names it calls: f(...) and obj.f(...) both count f."""
    calls = defaultdict(Counter)

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = f"{where}.{child.name}".lstrip(".")
                calls[inner]   # a function that calls nothing is still listed
                visit(child, inner)
            else:
                if isinstance(child, ast.Call):
                    name = getattr(child.func, "id", getattr(child.func, "attr", None))
                    if name is not None:
                        calls[where][name] += 1
                visit(child, where)

    visit(ast.parse(source), "")
    return calls


# the functions that write a defect or a series coefficient from its int
INT_WRITERS = {
    "algebra.py": ("grading_violations", "LeibnizSuperalgebra.check_grading",
                   "LeibnizSuperalgebra.check_leibniz", "SuperBimodule.check_grading",
                   "SuperBimodule.check_axioms"),
    "deformation.py": ("check_deformation", "infinitesimal_relation"),
    "fileio.py": ("series_to_doc",),
}
# each of these turns a whole jet into its document
JET_DOCUMENTS = ("deformation_to_doc", "series_to_doc", "save_deformation")


def test_defects_and_series_are_written_from_their_ints():
    # a Fraction per coefficient, most of them never printed, was the
    # largest boundary cost of the deformation verbs
    for name, functions in INT_WRITERS.items():
        calls = called_names((SRC / name).read_text(encoding="utf-8"))
        assert [f for f in functions if f not in calls or calls[f]["Fraction"]] == [], name
    # deform extend's report and --out file come from one document
    calls = called_names((SRC / "cli.py").read_text(encoding="utf-8"))["cmd_deform_extend"]
    assert sum(calls[n] for n in JET_DOCUMENTS) == 1


def row_space_callers(source: str) -> list[str]:
    """The functions of source (as Class.method or name, in the order they
    are defined) that call row_space_basis."""
    return [f for f, names in called_names(source).items() if names["row_space_basis"]]


def test_every_cocycle_and_coboundary_basis_comes_from_one_routine():
    # Z^n from the kernel of D_n, B^n (B^1_0 of inner_derivations
    # included) from the image of D_(n-1); a row space built elsewhere
    # would be a second route to a basis the table reports
    source = (SRC / "cohomology.py").read_text(encoding="utf-8")
    assert row_space_callers(source) == ["_z_rows", "_b_rows"]


def test_row_space_callers_are_reported():
    source = ("def _z_rows(m):\n    return row_space_basis(m)\n\n"
              "class Coboundary:\n    def inner(self):\n"
              "        return linalg.row_space_basis(self.rows)\n\n"
              "def rank_of(m):\n    return rank(m)\n")
    assert row_space_callers(source) == ["_z_rows", "Coboundary.inner"]


def test_fraction_calls_and_jet_documents_are_reported():
    source = ("class A:\n    def check(self):\n        return Fraction(1, 2)\n\n"
              "    def quiet(self):\n        pass\n\n"
              "def extend(jet, out):\n    term = series_to_doc(jet)\n"
              "    fileio.save_deformation(jet, out)\n")
    calls = called_names(source)
    assert sorted(calls) == ["A", "A.check", "A.quiet", "extend"]
    assert calls["A.check"]["Fraction"] == 1 and not calls["A.quiet"]
    assert sum(calls["extend"][n] for n in JET_DOCUMENTS) == 2


def verb_exits(source: str) -> list[str]:
    """'cmd_x: name', sorted, for each emit or EXIT_* name (bare or as an
    attribute) that a cmd_* function of source reads."""
    return sorted(f"{node.name}: {name}" for node in ast.parse(source).body
                  if isinstance(node, ast.FunctionDef) and node.name.startswith("cmd_")
                  for n in ast.walk(node)
                  for name in [getattr(n, "id", getattr(n, "attr", None))]
                  if isinstance(n, (ast.Name, ast.Attribute))
                  and (name == "emit" or name.startswith("EXIT_")))


def test_main_alone_emits_a_report_and_sets_its_exit_code():
    # a verb returns its report; main renders it and maps its status to 0
    # or 1, so no verb can exit with a code its report's status disowns
    assert verb_exits((SRC / "cli.py").read_text(encoding="utf-8")) == []


def test_verb_exits_are_reported():
    source = ("def cmd_a(args):\n    emit(r, args.format)\n"
              "    return EXIT_OK if ok else EXIT_MATH_FAIL\n\n"
              "def cmd_b(args):\n    cli.emit(r, 'json')\n    return r\n\n"
              "def main(argv):\n    emit(r, 'text')\n    return EXIT_OK\n")
    assert verb_exits(source) == ["cmd_a: EXIT_MATH_FAIL", "cmd_a: EXIT_OK",
                                  "cmd_a: emit", "cmd_b: emit"]


HEADER_KEYS = ("command", "algebra")


def verb_headers(source: str) -> list[str]:
    """'cmd_x: name', sorted, for each call of _load_algebra and each
    "command" or "algebra" key (of a dict display, a subscript or a
    keyword argument) in a cmd_* function of source."""
    found = []
    for node in ast.parse(source).body:
        if not (isinstance(node, ast.FunctionDef) and node.name.startswith("cmd_")):
            continue
        for n in ast.walk(node):
            if isinstance(n, ast.Call) and getattr(
                    n.func, "id", getattr(n.func, "attr", None)) == "_load_algebra":
                found.append(f"{node.name}: _load_algebra")
            keys = (n.keys if isinstance(n, ast.Dict) else
                    [n.slice] if isinstance(n, ast.Subscript) else
                    [ast.Constant(n.arg)] if isinstance(n, ast.keyword) else [])
            found += [f"{node.name}: {k.value}" for k in keys
                      if isinstance(k, ast.Constant) and k.value in HEADER_KEYS]
    return sorted(found)


def test_main_alone_loads_the_algebra_and_writes_the_header():
    # every verb takes the algebra main loaded and returns its report's
    # body; main adds the command and the algebra's name to every report
    assert verb_headers((SRC / "cli.py").read_text(encoding="utf-8")) == []


def test_verb_headers_are_reported():
    source = ("def cmd_a(args):\n    alg = _load_algebra(args)\n"
              "    return {'command': 'a', 'algebra': alg.space.name, 'dim': 3}\n\n"
              "def cmd_b(args, alg):\n    r = dict(command='b')\n"
              "    r['algebra'] = cli._load_algebra(args).space.name\n    return r\n\n"
              "def main(argv):\n    alg = _load_algebra(args)\n"
              "    return {'command': 'x', 'algebra': alg}\n")
    assert verb_headers(source) == ["cmd_a: _load_algebra", "cmd_a: algebra",
                                    "cmd_a: command", "cmd_b: _load_algebra",
                                    "cmd_b: algebra", "cmd_b: command"]
