"""AST engine for mercury_lint, on Python's clang.cindex bindings.

Parses each translation unit with the flags recorded in the
preset-generated compile_commands.json (so the tree the rules walk is
the tree the compiler built: macros expanded, profiler `#if` blocks
dropped exactly when the build drops them) and evaluates every rule
against real cursors instead of text shapes. This retires the v1
regex engine's known failure classes:

  * tick-api / tick-cast see declared types and operand types, not
    line heuristics -- a wrapped expression or a typedef chain can no
    longer hide a raw uint64_t or a double;
  * arena-delete resolves the deleted variable to its declaration and
    inspects its real initializer, so same-named variables in other
    scopes no longer trip it;
  * wall-clock / host-rng / pointer-order / unordered-iter match
    qualified names and canonical types, immune to aliases like
    `using clk = std::chrono::steady_clock`.

The engine is entirely optional: when libclang or the bindings are
missing, the driver falls back to engine_regex automatically (set
MERCURY_LIBCLANG to point at a specific libclang.so). Comment-keyed
contracts (event-ownership notes, `// lint: allow`) still read the
raw source, which the AST does not carry.
"""

import os
import re

import rules
from rules import Finding


class EngineUnavailable(Exception):
    """libclang / clang.cindex cannot be loaded on this host."""


class FileParseError(Exception):
    """One TU failed to parse; the driver regex-lints that file."""


_cindex = None


def _load_cindex():
    """Import and configure clang.cindex once; raise
    EngineUnavailable when bindings or the shared library are
    absent."""
    global _cindex
    if _cindex is not None:
        return _cindex
    try:
        from clang import cindex
    except ImportError as err:
        raise EngineUnavailable(f"clang.cindex not importable: {err}")
    override = os.environ.get("MERCURY_LIBCLANG")
    if override:
        try:
            cindex.Config.set_library_file(override)
        except Exception as err:  # pragma: no cover - config races
            raise EngineUnavailable(f"MERCURY_LIBCLANG rejected: {err}")
    try:
        cindex.Index.create()
    except Exception as err:
        raise EngineUnavailable(f"libclang not loadable: {err}")
    _cindex = cindex
    return cindex


def available():
    try:
        _load_cindex()
        return True
    except EngineUnavailable:
        return False


# ---------------------------------------------------------------------------
# Compile-command handling
# ---------------------------------------------------------------------------

_DEFAULT_ARGS = ["-x", "c++", "-std=c++20"]

_DROP_WITH_VALUE = {"-o", "-c", "--output"}


def _args_for(path, compile_db):
    """Compiler args for one file: from the compilation database when
    it knows the file, else a bare c++20 parse."""
    if compile_db is not None:
        cmds = compile_db.getCompileCommands(os.path.abspath(path))
        if cmds:
            cmd = list(cmds[0].arguments)
            args = []
            skip = False
            for i, arg in enumerate(cmd):
                if i == 0:  # the compiler executable
                    continue
                if skip:
                    skip = False
                    continue
                if arg in _DROP_WITH_VALUE:
                    skip = True
                    continue
                if arg == "-c" or os.path.abspath(arg) == \
                        os.path.abspath(path):
                    continue
                args.append(arg)
            return args
    return list(_DEFAULT_ARGS)


def _parse(cindex, path, args):
    index = cindex.Index.create()
    try:
        tu = index.parse(path, args=args)
    except Exception as err:
        raise FileParseError(f"{path}: {err}")
    fatal = [d for d in tu.diagnostics
             if d.severity >= cindex.Diagnostic.Fatal]
    if fatal:
        raise FileParseError(
            f"{path}: {fatal[0].spelling}")
    return tu


# ---------------------------------------------------------------------------
# Cursor helpers
# ---------------------------------------------------------------------------

def _fq_name(cursor):
    """Qualified name of a declaration cursor (namespaces only)."""
    cindex = _load_cindex()
    parts = []
    c = cursor
    while c is not None and c.kind is not None:
        if c.kind == cindex.CursorKind.TRANSLATION_UNIT:
            break
        if c.spelling:
            parts.append(c.spelling)
        c = c.semantic_parent
    return "::".join(reversed(parts))


_STD_ASSOC_RE = re.compile(
    r"\bstd::(?:__\w+::)?(unordered_)?(map|set|multimap|multiset)<")
_STD_UNORDERED_RE = re.compile(
    r"\bstd::(?:__\w+::)?unordered_(?:map|set|multimap|multiset)<")
_CHRONO_CLOCK_RE = re.compile(
    r"\bstd::(?:__\w+::)?chrono::(?:steady_clock|system_clock|"
    r"high_resolution_clock)\b")
_WALL_CLOCK_FUNCS = {"time", "clock_gettime", "gettimeofday",
                     "timespec_get", "clock"}
_HOST_RNG_FUNCS = {"rand", "srand"}
_HOST_RNG_TYPE_RE = re.compile(
    r"\bstd::(?:__\w+::)?(?:random_device|default_random_engine)\b")
_MT19937_RE = re.compile(r"\bstd::(?:__\w+::)?mt19937(?:_64)?\b")


def _canonical(type_obj):
    try:
        return type_obj.get_canonical().spelling
    except Exception:
        return type_obj.spelling if type_obj is not None else ""


def _pointer_keyed(cindex, type_obj):
    """True when a canonical std associative container type is keyed
    on a raw pointer."""
    canon = type_obj.get_canonical()
    if not _STD_ASSOC_RE.search(canon.spelling or ""):
        return False
    try:
        if canon.get_num_template_arguments() < 1:
            return False
        key = canon.get_template_argument_type(0)
        return key.get_canonical().kind == cindex.TypeKind.POINTER
    except Exception:
        # Older bindings without template-argument APIs: fall back to
        # a spelling test on the first argument.
        m = re.search(r"<([^,<>]*\*)\s*[,>]", canon.spelling or "")
        return m is not None


class _FileChecker:
    def __init__(self, cindex, rel, path, src, selected, findings):
        self.cindex = cindex
        self.CK = cindex.CursorKind
        self.rel = rel
        self.path = os.path.abspath(path)
        self.src = src
        self.selected = selected
        self.findings = findings
        self.is_header = rel.endswith((".hh", ".h", ".hpp"))
        self.wall_exempt = rules.exempt(rel, rules.WALL_CLOCK_EXEMPT)
        self.rng_exempt = rules.exempt(rel, rules.HOST_RNG_EXEMPT)
        self.cast_exempt = rules.exempt(rel, rules.TICK_CAST_EXEMPT)
        self.telemetry_exempt = rules.exempt(rel,
                                             rules.TELEMETRY_EXEMPT)

    def emit(self, cursor, rule, msg):
        loc = cursor.location
        self.findings.append(
            Finding(self.rel, loc.line, rule, msg))

    def in_this_file(self, cursor):
        loc = cursor.location
        return loc.file is not None and \
            os.path.abspath(loc.file.name) == self.path

    # ---- the walk --------------------------------------------------

    def walk(self, cursor):
        for child in cursor.get_children():
            if self.in_this_file(child):
                self.check(child)
                self.walk(child)
            elif child.kind == self.CK.NAMESPACE or \
                    child.kind == self.CK.TRANSLATION_UNIT:
                # Namespaces can span files; descend regardless.
                self.walk(child)

    def check(self, c):
        CK = self.CK
        sel = self.selected
        if "tick-api" in sel and self.is_header:
            self.check_tick_api(c)
        if "tick-cast" in sel and not self.cast_exempt and \
                c.kind == CK.CXX_STATIC_CAST_EXPR:
            self.check_tick_cast(c)
        if "event-ownership" in sel and c.kind == CK.CXX_NEW_EXPR:
            self.check_event_ownership(c)
        if "arena-delete" in sel and c.kind == CK.CXX_DELETE_EXPR:
            self.check_arena_delete(c)
        if "telemetry-json" in sel and not self.telemetry_exempt and \
                c.kind == CK.CALL_EXPR:
            self.check_telemetry(c)
        if "wall-clock" in sel and not self.wall_exempt:
            self.check_wall_clock(c)
        if "host-rng" in sel and not self.rng_exempt:
            self.check_host_rng(c)
        if "pointer-order" in sel and \
                c.kind in (CK.VAR_DECL, CK.FIELD_DECL, CK.PARM_DECL):
            self.check_pointer_order(c)
        if "unordered-iter" in sel and \
                c.kind == CK.CXX_FOR_RANGE_STMT:
            self.check_unordered_iter(c)

    # ---- individual rules -----------------------------------------

    def check_tick_api(self, c):
        CK = self.CK
        if c.kind == CK.PARM_DECL:
            spelled = c.type.spelling or ""
            if rules.time_valued_name(c.spelling) and \
                    "uint64_t" in spelled and "Tick" not in spelled:
                self.emit(c, "tick-api",
                          f"time-valued API '{c.spelling}' uses raw "
                          f"uint64_t; declare it as Tick")
        elif c.kind in (CK.FUNCTION_DECL, CK.CXX_METHOD):
            spelled = c.result_type.spelling or ""
            if rules.time_valued_name(c.spelling) and \
                    "uint64_t" in spelled and "Tick" not in spelled:
                self.emit(c, "tick-api",
                          f"time-valued API '{c.spelling}' returns "
                          f"raw uint64_t; declare it as Tick")

    def check_tick_cast(self, c):
        if (c.type.spelling or "") != "Tick":
            return
        kinds = self.cindex.TypeKind
        for operand in c.get_children():
            canon = operand.type.get_canonical()
            if canon.kind in (kinds.FLOAT, kinds.DOUBLE,
                              kinds.LONGDOUBLE):
                self.emit(c, "tick-cast",
                          "double-to-Tick cast bypasses "
                          "secondsToTicks; use the sim/types.hh "
                          "conversion helpers")
                return

    def check_event_ownership(self, c):
        spelled = _canonical(c.type)
        # Allocated type is T*; look at the pointee name.
        if not re.search(r"\bEvent\b|\w+Event\b",
                         spelled.replace("*", "").strip()):
            if "Event" not in spelled:
                return
        idx = c.location.line - 1
        raw = self.src.raw_lines
        context = " ".join(raw[max(0, idx - 2):
                               min(len(raw), idx + 2)])
        from engine_regex import OWNERSHIP_RE
        if not OWNERSHIP_RE.search(context):
            self.emit(c, "event-ownership",
                      "heap-allocated Event without an ownership "
                      "comment; EventQueue does not own events")

    def check_arena_delete(self, c):
        CK = self.CK
        ref = None
        for child in c.get_children():
            if child.kind == CK.DECL_REF_EXPR:
                ref = child
                break
            for grand in child.get_children():
                if grand.kind == CK.DECL_REF_EXPR:
                    ref = grand
                    break
        if ref is None or ref.referenced is None:
            return
        decl = ref.referenced
        tokens = " ".join(t.spelling for t in decl.get_tokens())
        if re.search(r"\b(?:makeEvent|make)\s*<", tokens):
            self.emit(c, "arena-delete",
                      f"'{decl.spelling}' came from the event arena "
                      f"(makeEvent/make); the queue releases it -- "
                      f"manual delete is a double free")

    def check_telemetry(self, c):
        callee = c.spelling or ""
        if callee not in rules.PRINTF_FAMILY:
            return
        CK = self.CK
        for tok in c.get_tokens():
            if tok.kind.name == "LITERAL" and \
                    re.search(r'\\"[A-Za-z_][A-Za-z0-9_]*\\":',
                              tok.spelling or ""):
                self.emit(c, "telemetry-json",
                          "JSON telemetry emitted through a raw "
                          "printf-family call; use the sim/json.hh "
                          "writers so escaping and number formats "
                          "stay canonical")
                return

    def check_wall_clock(self, c):
        CK = self.CK
        lineno = c.location.line
        if self.src.in_profile_guard(lineno):
            return
        if c.kind in (CK.TYPE_REF, CK.DECL_REF_EXPR):
            name = _fq_name(c.referenced) if c.referenced is not None \
                else (c.spelling or "")
            if _CHRONO_CLOCK_RE.search("std::" + name) or \
                    _CHRONO_CLOCK_RE.search(name):
                self.emit(c, "wall-clock",
                          "host wall-clock access outside the "
                          "profiler whitelist; simulated results "
                          "must be a pure function of the seed and "
                          "config")
        elif c.kind == CK.CALL_EXPR:
            callee = c.referenced
            if callee is not None and \
                    callee.spelling in _WALL_CLOCK_FUNCS and \
                    callee.semantic_parent is not None and \
                    callee.semantic_parent.kind in (
                        CK.TRANSLATION_UNIT, CK.NAMESPACE,
                        CK.LINKAGE_SPEC):
                self.emit(c, "wall-clock",
                          "host wall-clock access outside the "
                          "profiler whitelist; simulated results "
                          "must be a pure function of the seed and "
                          "config")

    def check_host_rng(self, c):
        CK = self.CK
        if c.kind == CK.CALL_EXPR:
            callee = c.referenced
            if callee is not None and \
                    callee.spelling in _HOST_RNG_FUNCS and \
                    callee.semantic_parent is not None and \
                    callee.semantic_parent.kind in (
                        CK.TRANSLATION_UNIT, CK.NAMESPACE,
                        CK.LINKAGE_SPEC):
                self.emit(c, "host-rng",
                          "host randomness source; draw from the "
                          "seeded sim/random.hh xoshiro streams "
                          "instead")
        elif c.kind == CK.VAR_DECL:
            canon = _canonical(c.type)
            if _HOST_RNG_TYPE_RE.search(canon):
                self.emit(c, "host-rng",
                          "host randomness source; draw from the "
                          "seeded sim/random.hh xoshiro streams "
                          "instead")
            elif _MT19937_RE.search(canon):
                # Unseeded when the declaration has no argument
                # expression (children are only type references).
                has_arg = any(
                    ch.kind.is_expression()
                    for ch in c.get_children())
                if not has_arg:
                    self.emit(c, "host-rng",
                              "unseeded std::mt19937; every stream "
                              "must be explicitly seeded (prefer "
                              "sim/random.hh)")

    def check_pointer_order(self, c):
        if _pointer_keyed(self.cindex, c.type):
            canon = _canonical(c.type)
            short = canon.split("<")[0].rsplit("::", 1)[-1]
            self.emit(c, "pointer-order",
                      f"{short} keyed on raw pointer values; host "
                      f"addresses differ run to run -- key on a "
                      f"stable id instead")

    def check_unordered_iter(self, c):
        CK = self.CK
        for child in c.get_children():
            if child.kind.is_expression() or \
                    child.kind == CK.DECL_STMT:
                canon = ""
                if child.kind != CK.DECL_STMT:
                    canon = _canonical(child.type)
                if _STD_UNORDERED_RE.search(canon):
                    self.emit(c, "unordered-iter",
                              "iterating an unordered container; "
                              "bucket order is nondeterministic -- "
                              "sort before emitting")
                    return


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def open_compile_db(build_dir):
    """A CompilationDatabase for build_dir, or None when absent."""
    cindex = _load_cindex()
    try:
        return cindex.CompilationDatabase.fromDirectory(build_dir)
    except Exception:
        return None


def lint_file(rel, path, src, findings, selected, compile_db=None,
              extra_args=None):
    """AST-lint one file; raises FileParseError when the TU cannot be
    built (driver falls back to regex for that file)."""
    cindex = _load_cindex()
    args = _args_for(path, compile_db)
    if extra_args:
        args = args + list(extra_args)
    tu = _parse(cindex, path, args)
    checker = _FileChecker(cindex, rel, path, src, selected, findings)
    checker.walk(tu.cursor)
    # Comment-keyed contract: the `///< [outcome]` annotation lives
    # in doc comments the AST does not carry, so both engines share
    # the text-level implementation (identical verdicts by
    # construction).
    if "result-class" in selected:
        findings.extend(rules.outcome_class_findings(rel, src))
