"""High-level API: the front door most users need.

.. code-block:: python

    import repro

    # From grammar modules on disk / built in:
    lang = repro.compile_grammar("jay.Jay", paths=["grammars/"])
    tree = lang.parse("class C { int f() { return 42; } }")

    # From a programmatically built grammar:
    from repro.peg.builder import GrammarBuilder, ...
    lang = repro.compile_grammar(builder.build())

A :class:`Language` bundles everything derived from one grammar under one
set of optimization options: the composed grammar, the prepared (optimized)
grammar, the generated parser source, and the ready-to-use parser class.

Compilation is memoized at two levels (see ``docs/caching.md``):

- an in-process LRU of :class:`Language` objects keyed by
  ``(root, options, start, parser name, search paths)``, revalidated
  against the current ``.mg`` texts on every hit;
- an optional on-disk :class:`~repro.cache.CompilationCache` (pass
  ``cache=True`` / ``cache_dir=...`` / a cache instance, or set
  ``$REPRO_CACHE_DIR``) that makes the second *process* warm too.

For parsing many inputs with one grammar, :meth:`Language.session` reuses a
single parser instance, resetting (not reallocating) its memo table between
inputs.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.cache import CompilationCache, module_fingerprint
from repro.codegen import generate_parser_source, load_parser
from repro.errors import CompositionError
from repro.interp import BacktrackInterpreter, PackratInterpreter
from repro.meta import ModuleLoader
from repro.modules import compose, compose_with_manifest
from repro.optim import Options, PreparedGrammar, prepare
from repro.peg.grammar import Grammar


@dataclass(frozen=True)
class Language:
    """A compiled language: grammar + optimized grammar + generated parser."""

    grammar: Grammar
    prepared: PreparedGrammar
    parser_source: str
    parser_class: type

    #: Backends :meth:`parse` / :meth:`session` accept.
    BACKENDS = ("generated", "vm")

    # -- parsing ----------------------------------------------------------------

    def parse(
        self,
        text: str,
        start: str | None = None,
        source: str = "<input>",
        profile: Any = None,
        depth_budget: int | None = None,
        backend: str = "generated",
    ) -> Any:
        """Parse ``text`` completely.

        ``backend`` selects the execution strategy: ``"generated"`` (the
        default, compiled Python source) or ``"vm"`` (the parsing machine,
        :mod:`repro.vm`).  Both produce identical ASTs and errors.

        Pass a :class:`repro.profile.ParseProfile` as ``profile`` to record
        parse-time telemetry; the parse then runs through a lazily compiled
        *profiled twin* of the selected backend (the default parser class is
        untouched — see ``docs/profiling.md``).  Note the twin profiles the
        fully *optimized* grammar; for author's-grammar coverage use
        :func:`repro.profile.profile_corpus`.

        ``depth_budget`` caps the resources the parse may use: for the
        generated backend it is a recursion budget counted in stack frames
        above the caller (see :func:`repro.runtime.base.recursion_budget`);
        for the VM backend it is a machine stack-entry budget (calls plus
        live backtrack points).  Either way, input too deeply nested raises
        a structured :class:`~repro.errors.ParseDepthError`, never a raw
        :class:`RecursionError`.
        """
        if backend == "vm":
            return self._parse_vm(text, start, source, profile, depth_budget)
        if backend != "generated":
            raise ValueError(
                f"unknown backend {backend!r}; expected one of {self.BACKENDS}"
            )
        from repro.runtime.base import recursion_budget

        with recursion_budget(depth_budget):
            if profile is None:
                return self.parser_class(text, source).parse(start)
            profile.register_grammar(self.prepared.grammar)
            try:
                value = self.profiled_parser_class(text, source, profile=profile).parse(start)
            except Exception:
                profile.count_parse(text, accepted=False)
                raise
            profile.count_parse(text, accepted=True)
            return value

    def _parse_vm(
        self,
        text: str,
        start: str | None,
        source: str,
        profile: Any,
        depth_budget: int | None,
    ) -> Any:
        from repro.vm import VMParser

        program = self.vm_program(profiled=profile is not None)
        if profile is None:
            return VMParser(program, text, source, depth_budget=depth_budget).parse(start)
        profile.register_grammar(self.prepared.grammar)
        try:
            value = VMParser(
                program, text, source, profile=profile, depth_budget=depth_budget
            ).parse(start)
        except Exception:
            profile.count_parse(text, accepted=False)
            raise
        profile.count_parse(text, accepted=True)
        return value

    def vm_program(self, profiled: bool = False, incremental: bool = False):
        """The grammar lowered to parsing-machine bytecode, compiled on first
        use and cached on the instance (plain, profiled, and incremental
        twins separately).
        """
        from repro.vm import compile_program

        if profiled and incremental:
            raise ValueError("profiled and incremental VM programs are exclusive")
        if incremental:
            attr = "_vm_program_incremental"
        elif profiled:
            attr = "_vm_program_profiled"
        else:
            attr = "_vm_program"
        cached = self.__dict__.get(attr)
        if cached is None:
            cached = compile_program(self.prepared, profiled=profiled, incremental=incremental)
            object.__setattr__(self, attr, cached)
        return cached

    def parse_file(self, path: str | Path, start: str | None = None) -> Any:
        """Parse the contents of a file (its path becomes the source name)."""
        path = Path(path)
        return self.parse(path.read_text(), start=start, source=str(path))

    def trace(self, text: str, start: str | None = None, source: str = "<input>"):
        """Parse with tracing (on the interpreter backend).

        Returns ``(value, events, error)``; see
        :func:`repro.interp.trace_parse`.
        """
        from repro.interp import trace_parse

        return trace_parse(self.interpreter(), text, start=start, source=source)

    def parser(self, text: str, source: str = "<input>", profile: Any = None):
        """A fresh generated-parser instance over ``text`` (the profiled
        twin when ``profile`` is given)."""
        if profile is None:
            return self.parser_class(text, source)
        return self.profiled_parser_class(text, source, profile=profile)

    @property
    def profiled_parser_class(self) -> type:
        """The generated parser's instrumented twin, compiled on first use.

        Same grammar, same optimization options, same ASTs and errors — plus
        :class:`repro.profile.ParseProfile` hooks.  Cached on the instance so
        repeated profiled parses pay codegen once.
        """
        cached = self.__dict__.get("_profiled_class")
        if cached is None:
            name = self.parser_class.__name__
            source = generate_parser_source(self.prepared, name, profiled=True)
            cached = load_parser(source, name)
            object.__setattr__(self, "_profiled_class", cached)
        return cached

    def session(
        self,
        start: str | None = None,
        profile: Any = None,
        depth_budget: int | None = None,
        backend: str = "generated",
    ) -> "ParseSession":
        """A warm-parse session: one parser instance reused across inputs.

        .. code-block:: python

            session = lang.session()
            for text in corpus:
                tree = session.parse(text)

        Between inputs the parser is ``reset()`` — failure tracking, the
        line index, and the memo table are cleared *in place*, so parsing N
        inputs allocates one parser and one memo table, not N.

        ``backend`` selects the execution strategy (``"generated"`` or
        ``"vm"``), exactly as in :meth:`parse`.  With ``profile`` set, the
        session reuses one *profiled-twin* parser instead and accumulates
        telemetry across all its parses.  A ``depth_budget`` (stack frames,
        or machine stack entries on the VM) applies to every parse in the
        session — deep inputs fail with a structured
        :class:`~repro.errors.ParseDepthError`.
        """
        return ParseSession(
            self, start=start, profile=profile, depth_budget=depth_budget, backend=backend
        )

    def incremental(
        self,
        start: str | None = None,
        profile: Any = None,
        depth_budget: int | None = None,
    ) -> "IncrementalSession":
        """An edit-aware session: reparse after edits, reusing memo entries.

        .. code-block:: python

            session = lang.incremental()
            session.set_text(buffer)
            tree = session.parse()
            session.apply_edit(offset, removed, "replacement")
            tree = session.parse()          # only re-derives damaged spans

        :meth:`~repro.incremental.IncrementalSession.apply_edit` shifts memo
        entries right of the damage and drops only those whose *examined*
        span overlaps it, so a small edit costs work proportional to the
        damage, not the buffer (see ``docs/incremental.md``).  The session
        runs the parsing machine's watermark-instrumented twin, whose
        results are identical to a cold parse.

        Rejects are exact too: a warm parse that fails runs a second warm
        pass that re-derives only the memo hits examined past its farthest
        offset, so the :class:`~repro.errors.ParseError` (offset, ordered
        expected tuple, line, column) is the one a cold parse reports, at
        about the cost of a warm reparse.
        """
        from repro.incremental import IncrementalSession

        return IncrementalSession(self, start=start, profile=profile, depth_budget=depth_budget)

    def recognize(self, text: str, start: str | None = None) -> bool:
        """Does the whole input match?  (No value construction errors are
        suppressed — only parse failures.)"""
        from repro.errors import ParseError

        try:
            self.parse(text, start)
        except ParseError:
            return False
        return True

    # -- reference backends --------------------------------------------------------

    def interpreter(
        self, memoize: bool = True, profile: Any = None
    ) -> PackratInterpreter | BacktrackInterpreter:
        """A grammar interpreter over the same prepared grammar."""
        if memoize:
            return PackratInterpreter(
                self.prepared.grammar, chunked=self.prepared.chunked_memo, profile=profile
            )
        return BacktrackInterpreter(self.prepared.grammar, profile=profile)

    # -- artifacts -----------------------------------------------------------------

    def write_parser(self, path: str | Path) -> Path:
        """Write the generated parser module to ``path``."""
        path = Path(path)
        path.write_text(self.parser_source)
        return path

    @property
    def options(self) -> Options:
        return self.prepared.options


class ParseSession:
    """Parse many inputs with one reused parser instance.

    Created via :meth:`Language.session`.  The first :meth:`parse` call
    allocates the parser; every later call resets it in place — same parser
    object, same memo-table container — which removes per-parse allocation
    of memo columns from the warm path.
    """

    def __init__(
        self,
        language: Language,
        start: str | None = None,
        profile: Any = None,
        depth_budget: int | None = None,
        backend: str = "generated",
    ):
        if backend not in Language.BACKENDS:
            raise ValueError(
                f"unknown backend {backend!r}; expected one of {Language.BACKENDS}"
            )
        self._language = language
        self._start = start
        self._parser = None
        self._profile = profile
        self._depth_budget = depth_budget
        self._backend = backend
        if profile is not None:
            profile.register_grammar(language.prepared.grammar)
        #: Number of inputs parsed (including failed parses).
        self.parses = 0

    @property
    def language(self) -> Language:
        return self._language

    @property
    def parser(self):
        """The underlying parser instance (``None`` before the first parse)."""
        return self._parser

    def parse(self, text: str, source: str = "<input>") -> Any:
        """Parse ``text`` completely; raises :class:`ParseError` on failure."""
        if self._backend == "vm":
            # The VM enforces the depth budget itself, as a machine
            # stack-entry cap — no interpreter recursion limit to arm.
            return self._parse(text, source)
        from repro.runtime.base import recursion_budget

        with recursion_budget(self._depth_budget):
            return self._parse(text, source)

    def _make_parser(self, text: str, source: str):
        profile = self._profile
        if self._backend == "vm":
            from repro.vm import VMParser

            program = self._language.vm_program(profiled=profile is not None)
            return VMParser(
                program, text, source, profile=profile, depth_budget=self._depth_budget
            )
        if profile is None:
            return self._language.parser_class(text, source)
        return self._language.profiled_parser_class(text, source, profile=profile)

    def _parse(self, text: str, source: str) -> Any:
        parser = self._parser
        profile = self._profile
        if parser is None:
            parser = self._parser = self._make_parser(text, source)
        else:
            parser.reset(text, source)
        self.parses += 1
        if profile is None:
            try:
                return parser.parse(self._start)
            except Exception:
                # Failed parses must not park a stale (possibly huge) memo
                # table on the session between requests: a long-lived session
                # (e.g. a serve worker) would otherwise hold the whole memo
                # of the last failure while idle.
                parser._reset_memo()
                raise
        try:
            value = parser.parse(self._start)
        except Exception:
            profile.count_parse(text, accepted=False)
            parser._reset_memo()
            raise
        profile.count_parse(text, accepted=True)
        return value

    def recognize(self, text: str) -> bool:
        """Does the whole input match?"""
        from repro.errors import ParseError

        try:
            self.parse(text)
        except ParseError:
            return False
        return True

    def close(self) -> None:
        """Release the session's parser (and with it the memo table).

        The session stays usable — the next :meth:`parse` simply allocates a
        fresh parser — but a closed idle session no longer pins the last
        input's memo columns in memory.
        """
        self._parser = None

    def __enter__(self) -> "ParseSession":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


# -- in-process language LRU ---------------------------------------------------
#
# Entries are (Language, fingerprint, module names); a hit is revalidated by
# re-hashing the participating .mg texts, so editing a grammar file between
# compile_grammar calls is observed even without the disk cache.
#
# All access to the OrderedDict goes through ``_lru_lock``: compile_grammar
# is called concurrently by the parse-service worker pool and by any
# multi-threaded embedder, and OrderedDict mutation is not atomic.  The
# fingerprint I/O in ``_lru_lookup`` happens *outside* the lock so a slow
# disk never serializes unrelated compiles.

_LRU_MAX = 32
_language_lru: OrderedDict[tuple, tuple[Language, dict[str, str], tuple[str, ...]]] = OrderedDict()
_lru_lock = threading.RLock()

if hasattr(os, "register_at_fork"):
    # A child forked while another thread holds the lock would inherit it
    # locked forever (the owning thread does not exist in the child); the
    # serve worker pool forks from threaded parents, so re-arm it.
    os.register_at_fork(after_in_child=lambda: globals().__setitem__("_lru_lock", threading.RLock()))


def clear_language_cache() -> None:
    """Empty the in-process :class:`Language` LRU."""
    with _lru_lock:
        _language_lru.clear()


def language_cache_info() -> dict[str, int]:
    """Size/capacity of the in-process :class:`Language` LRU."""
    with _lru_lock:
        return {"size": len(_language_lru), "max": _LRU_MAX}


def _lru_store(key: tuple, language: Language, fingerprint: dict[str, str], modules: tuple[str, ...]) -> None:
    with _lru_lock:
        _language_lru[key] = (language, fingerprint, modules)
        _language_lru.move_to_end(key)
        while len(_language_lru) > _LRU_MAX:
            _language_lru.popitem(last=False)


def _lru_lookup(key: tuple, loader: ModuleLoader) -> Language | None:
    with _lru_lock:
        entry = _language_lru.get(key)
    if entry is None:
        return None
    language, fingerprint, modules = entry
    try:
        current = module_fingerprint(loader, modules)
    except CompositionError:
        current = None
    if current != fingerprint:
        with _lru_lock:
            _language_lru.pop(key, None)
        return None
    with _lru_lock:
        if key in _language_lru:
            _language_lru.move_to_end(key)
    return language


def _resolve_disk_cache(
    cache: CompilationCache | bool | None, cache_dir: str | Path | None
) -> CompilationCache | None:
    """Which on-disk cache (if any) the ``cache``/``cache_dir`` args select."""
    if cache is False:
        return None
    if isinstance(cache, CompilationCache):
        return cache
    if cache_dir is not None:
        return CompilationCache(Path(cache_dir))
    if cache is True or os.environ.get("REPRO_CACHE_DIR"):
        return CompilationCache()
    return None


def load_grammar(
    root: str,
    paths: list[str | Path] | None = None,
    loader: ModuleLoader | None = None,
    start: str | None = None,
) -> Grammar:
    """Compose the module ``root`` (and everything it reaches) into a grammar."""
    if loader is None:
        loader = ModuleLoader(paths=list(paths) if paths else None)
    return compose(root, loader, start=start)


def compile_grammar(
    grammar: Grammar | str,
    options: Options | None = None,
    paths: list[str | Path] | None = None,
    loader: ModuleLoader | None = None,
    start: str | None = None,
    parser_name: str = "Parser",
    cache: CompilationCache | bool | None = None,
    cache_dir: str | Path | None = None,
) -> Language:
    """Compose (if needed), optimize, and generate a parser.

    ``grammar`` is either an already-built :class:`Grammar` or the qualified
    name of a root grammar module to compose.

    Named roots are served from the in-process LRU when possible (disable
    with ``cache=False``); an on-disk cache is used in addition when
    ``cache=True``, ``cache_dir`` is given, ``cache`` is a
    :class:`~repro.cache.CompilationCache`, or ``$REPRO_CACHE_DIR`` is set.
    Both levels revalidate against the current ``.mg`` module texts, so
    stale artifacts are rebuilt, never trusted.
    """
    opts = options or Options.all()
    if not isinstance(grammar, str):
        # Programmatically built grammars have no stable source identity to
        # fingerprint, so they bypass both cache levels.
        if start is not None:
            grammar = grammar.with_start(start)
        return _compile_prepared(grammar, opts, parser_name)

    root = grammar
    disk = _resolve_disk_cache(cache, cache_dir)
    # A caller-supplied loader may hold unregistered in-memory sources, so
    # the process-wide LRU (keyed only by name/paths) would be unsound.
    use_lru = cache is not False and loader is None
    if loader is None:
        loader = ModuleLoader(paths=list(paths) if paths else None)
    lru_key = (
        root,
        opts.cache_key(),
        start,
        parser_name,
        tuple(str(p) for p in (paths or ())),
    )

    if use_lru:
        cached = _lru_lookup(lru_key, loader)
        if cached is not None:
            return cached

    if disk is not None:
        hit = disk.lookup(root, opts, start, parser_name, loader)
        if hit is not None:
            language = Language(
                grammar=hit.grammar,
                prepared=hit.prepared,
                parser_source=hit.parser_source,
                parser_class=hit.parser_class,
            )
            if use_lru:
                _lru_store(lru_key, language, hit.fingerprint, tuple(hit.fingerprint))
            return language

    composed, modules = compose_with_manifest(root, loader, start=start)
    language = _compile_prepared(composed, opts, parser_name)
    if disk is not None:
        disk.store(
            root, opts, start, parser_name, loader, modules,
            language.grammar, language.prepared, language.parser_source,
        )
    if use_lru:
        try:
            fingerprint = module_fingerprint(loader, modules)
        except CompositionError:
            fingerprint = None
        if fingerprint is not None:
            _lru_store(lru_key, language, fingerprint, modules)
    return language


def _compile_prepared(grammar: Grammar, options: Options, parser_name: str) -> Language:
    """The uncached compile path: optimize, generate, and load."""
    prepared = prepare(grammar, options)
    source = generate_parser_source(prepared, parser_name)
    parser_class = load_parser(source, parser_name)
    return Language(
        grammar=grammar,
        prepared=prepared,
        parser_source=source,
        parser_class=parser_class,
    )


def parse(
    grammar: Grammar | str,
    text: str,
    options: Options | None = None,
    paths: list[str | Path] | None = None,
    start: str | None = None,
) -> Any:
    """One-shot convenience: compile and parse in one call."""
    return compile_grammar(grammar, options=options, paths=paths, start=start).parse(text)
