"""The real-Python corpus: loading, PEP 263 decoding, and the parse driver.

``examples/python/`` holds a checked-in slice of real Python source (see its
README for provenance).  This module turns those bytes into parseable text
and runs them through a compiled ``python.Python`` language:

- :func:`decode_python_source` implements PEP 263: a UTF-8 BOM wins, else a
  ``coding:`` declaration on one of the first two lines, else UTF-8.
- :func:`load_corpus` walks the corpus directory and *skips-and-reports*
  undecodable files instead of crashing — a corpus run must never die on one
  bad input.
- :data:`ALLOWLIST` names the files expected **not** to parse, each with the
  reason (constructs beyond the grammar's 3.8-level scope).  The corpus
  driver treats an allowlisted failure as expected, an allowlisted *success*
  as a stale allowlist entry, and any other failure as a defect.
- :func:`run_corpus` is the driver: parse every file through a parse
  callable, fold outcomes into a :class:`CorpusReport`.

Run it from the command line::

    python -m repro.workloads.pycorpus            # generated backend
"""

from __future__ import annotations

import codecs
import re
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator

from repro.errors import ParseError
from repro.workloads.pylayout import LayoutError, python_layout

#: Repository-relative default corpus location.
CORPUS_DIR = Path(__file__).resolve().parents[3] / "examples" / "python"

#: PEP 263: ``coding[:=]\s*([-\w.]+)`` on one of the first two lines.
_CODING_RE = re.compile(rb"^[ \t\f]*#.*?coding[:=][ \t]*([-_.a-zA-Z0-9]+)")

#: Corpus files expected not to parse, with the reason.  Keys are file names
#: relative to the corpus root.
ALLOWLIST: dict[str, str] = {
    "dataclasses.py": "match statement (3.10 soft keyword, out of scope)",
    "traceback.py": "match statement (3.10 soft keyword, out of scope)",
    "encoded_undecodable.py": "deliberately undecodable bytes (loader skip path)",
}


class CorpusDecodeError(ValueError):
    """A corpus file's bytes could not be decoded as Python source."""


def source_encoding(data: bytes) -> str:
    """The encoding of Python source bytes, per PEP 263.

    A UTF-8 BOM forces ``utf-8-sig`` (and wins over any declaration); else a
    ``# -*- coding: X -*-`` style comment on the first or second line names
    the codec; else UTF-8.
    """
    if data.startswith(codecs.BOM_UTF8):
        return "utf-8-sig"
    for line in data.split(b"\n", 2)[:2]:
        match = _CODING_RE.match(line)
        if match:
            return match.group(1).decode("ascii")
        if line.strip() and not line.lstrip().startswith(b"#"):
            break  # a code line ends the declaration window
    return "utf-8"


def decode_python_source(data: bytes) -> str:
    """Decode Python source bytes honoring PEP 263.

    Raises :class:`CorpusDecodeError` when the declared codec is unknown or
    the bytes do not decode under it.
    """
    encoding = source_encoding(data)
    try:
        return data.decode(encoding)
    except (UnicodeDecodeError, LookupError) as exc:
        raise CorpusDecodeError(f"cannot decode as {encoding}: {exc}") from exc


@dataclass(frozen=True)
class CorpusFile:
    """One decoded corpus file."""

    name: str  # path relative to the corpus root
    path: Path
    text: str  # decoded source, NOT layout-preprocessed
    nbytes: int  # size of the raw file on disk


@dataclass(frozen=True)
class SkippedFile:
    """A corpus file the loader could not decode."""

    name: str
    path: Path
    reason: str


def load_corpus(
    root: Path | str = CORPUS_DIR,
) -> tuple[list[CorpusFile], list[SkippedFile]]:
    """Load every ``*.py`` under ``root``; undecodable files are skipped and
    reported, never raised."""
    root = Path(root)
    files: list[CorpusFile] = []
    skipped: list[SkippedFile] = []
    for path in sorted(root.rglob("*.py")):
        name = path.relative_to(root).as_posix()
        data = path.read_bytes()
        try:
            text = decode_python_source(data)
        except CorpusDecodeError as exc:
            skipped.append(SkippedFile(name, path, str(exc)))
            continue
        files.append(CorpusFile(name, path, text, len(data)))
    return files, skipped


@dataclass
class FileOutcome:
    """What happened to one corpus file under one parse callable."""

    name: str
    status: str  # "parsed" | "failed" | "allowlisted" | "stale-allowlist"
    detail: str = ""
    seconds: float = 0.0
    nbytes: int = 0
    value: Any = None


@dataclass
class CorpusReport:
    """Aggregated corpus-run outcomes."""

    outcomes: list[FileOutcome] = field(default_factory=list)
    skipped: list[SkippedFile] = field(default_factory=list)
    seconds: float = 0.0

    @property
    def parsed(self) -> list[FileOutcome]:
        return [o for o in self.outcomes if o.status == "parsed"]

    @property
    def failed(self) -> list[FileOutcome]:
        return [o for o in self.outcomes if o.status == "failed"]

    @property
    def allowlisted(self) -> list[FileOutcome]:
        return [o for o in self.outcomes if o.status == "allowlisted"]

    @property
    def stale_allowlist(self) -> list[FileOutcome]:
        return [o for o in self.outcomes if o.status == "stale-allowlist"]

    @property
    def attempted(self) -> int:
        """Files the grammar was *expected* to parse."""
        return len(self.parsed) + len(self.failed)

    @property
    def parse_rate(self) -> float:
        """Fraction of non-allowlisted files that parsed."""
        return len(self.parsed) / self.attempted if self.attempted else 1.0

    @property
    def parsed_bytes(self) -> int:
        return sum(o.nbytes for o in self.parsed)

    @property
    def bytes_per_second(self) -> float:
        spent = sum(o.seconds for o in self.parsed)
        return self.parsed_bytes / spent if spent else 0.0

    def summary(self) -> str:
        lines = [
            f"corpus: {len(self.outcomes)} files attempted, "
            f"{len(self.skipped)} skipped (undecodable)",
            f"parsed {len(self.parsed)}/{self.attempted} non-allowlisted "
            f"({self.parse_rate:.1%}), {len(self.allowlisted)} allowlisted",
            f"throughput {self.bytes_per_second / 1e3:.0f} KB/s over "
            f"{self.parsed_bytes / 1e3:.0f} KB in {self.seconds:.2f}s",
        ]
        for o in self.failed:
            lines.append(f"  FAILED {o.name}: {o.detail}")
        for o in self.stale_allowlist:
            lines.append(f"  STALE ALLOWLIST {o.name}: parsed but listed")
        for s in self.skipped:
            lines.append(f"  skipped {s.name}: {s.reason}")
        return "\n".join(lines)


def run_corpus(
    parse: Callable[[str, str], Any],
    *,
    root: Path | str = CORPUS_DIR,
    allowlist: dict[str, str] | None = None,
    keep_values: bool = False,
) -> CorpusReport:
    """Parse every corpus file through ``parse(preprocessed_text, name)``.

    ``parse`` is any callable with farthest-failure :class:`ParseError`
    semantics — typically ``session.parse`` of a compiled ``python.Python``
    language, but any backend adapter works.  Layout errors from the pre-pass
    count as parse failures for allowlisting purposes.
    """
    allowlist = ALLOWLIST if allowlist is None else allowlist
    files, skipped = load_corpus(root)
    report = CorpusReport(skipped=skipped)
    started = time.perf_counter()
    for cf in files:
        listed = cf.name in allowlist
        t0 = time.perf_counter()
        try:
            value = parse(python_layout(cf.text), cf.name)
        except (ParseError, LayoutError) as exc:
            spent = time.perf_counter() - t0
            status = "allowlisted" if listed else "failed"
            report.outcomes.append(
                FileOutcome(cf.name, status, f"{type(exc).__name__}: {exc}", spent, cf.nbytes)
            )
            continue
        spent = time.perf_counter() - t0
        if listed:
            report.outcomes.append(
                FileOutcome(cf.name, "stale-allowlist", allowlist[cf.name], spent, cf.nbytes)
            )
            continue
        report.outcomes.append(
            FileOutcome(
                cf.name, "parsed", "", spent, cf.nbytes, value if keep_values else None
            )
        )
    report.seconds = time.perf_counter() - started
    return report


def main(argv: list[str] | None = None) -> int:
    import argparse

    import repro

    parser = argparse.ArgumentParser(description="Parse the real-Python corpus.")
    parser.add_argument("--root", default=str(CORPUS_DIR), help="corpus directory")
    parser.add_argument(
        "--depth-budget", type=int, default=50_000, help="recursion budget in frames"
    )
    args = parser.parse_args(argv)

    language = repro.compile_grammar("python.Python")
    with language.session(depth_budget=args.depth_budget) as session:
        report = run_corpus(session.parse, root=args.root)
    print(report.summary())
    bad = report.failed or report.stale_allowlist
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
