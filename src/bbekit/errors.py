"""Exception taxonomy shared by all modules, and the one reader of outside
input.

The CLI maps these onto process exit codes via the ``exit_code`` attribute:
2 = configuration problem, 3 = data problem, 4 = violated invariant,
5 = numerical abort.  ``open_input``, ``read_exact`` and ``parse_json`` are
the only code that turns a failed open, a short read or bad JSON into the
caller's ``BbekitError``.  An input error names its file, as ``<path>:<line>``
for a line of text.
"""

import json


class BbekitError(Exception):
    exit_code = 1


class ConfigError(BbekitError):
    """Invalid configuration value or unusable call arguments."""

    exit_code = 2


class DimensionError(ConfigError):
    """Tensor shapes incompatible with the requested operation."""


class StateError(ConfigError):
    """Operation called on an object in the wrong state (no tape, double expansion, ...)."""


class DataError(BbekitError):
    """Base for problems with input data and on-disk artifacts."""

    exit_code = 3


class InputError(DataError):
    """Model input rejected (empty, non-finite, too short)."""


class FormatError(DataError):
    """Binary file (checkpoint / feature file) malformed or wrong version."""


class LabelError(DataError):
    """Class index or label string outside the expected inventory."""


class UnmappedLabelError(LabelError):
    """One or more raw labels have no entry in the mapping table."""

    def __init__(self, labels, source=None):
        self.labels = sorted(set(labels))
        super().__init__(("" if source is None else f"{source}: ")
                         + "unmapped labels: " + ", ".join(repr(s) for s in self.labels))


class IngestError(DataError):
    """Corpus set, manifest or mapping table malformed, or naming unusable data."""


class SplitError(DataError):
    """Split generation impossible for this corpus."""


class SplitViolationError(SplitError):
    """A speaker appears in more than one partition."""

    def __init__(self, speakers):
        self.speakers = sorted(set(speakers))
        super().__init__("speakers present in multiple splits: " + ", ".join(self.speakers))


class EvalError(DataError):
    """Evaluation requested on an empty or unusable split."""


class MetricError(DataError):
    """Metric undefined for the given inputs (e.g. all-zero confusion matrix)."""


class ReportError(DataError):
    """Report rows are inconsistent (ragged variant sets, empty results)."""


class InvariantViolation(BbekitError):
    """A must-hold property failed (preservation nonzero, gradcheck above tolerance)."""

    exit_code = 4


class NumericalError(BbekitError):
    """An operation produced non-finite values."""

    exit_code = 5


class NumericalAbort(NumericalError):
    """Training aborted on a non-finite loss; carries step diagnostics."""

    def __init__(self, message: str, step: int | None = None, corpus_id: str | None = None,
                 loss_tail=None):
        self.step = step
        self.corpus_id = corpus_id
        self.loss_tail = list(loss_tail) if loss_tail else []
        detail = message
        if step is not None:
            detail += f" (step {step}"
            if corpus_id:
                detail += f", corpus {corpus_id}"
            detail += ")"
        if self.loss_tail:
            detail += "; recent losses: " + ", ".join(f"{x:g}" for x in self.loss_tail)
        super().__init__(detail)


def open_input(path, error: type[BbekitError], what: str):
    """``path`` opened for binary reading; a path that cannot be opened
    (missing, a directory, unreadable, a NUL byte) is ``error``."""
    try:
        return open(path, "rb")
    except (OSError, ValueError) as exc:  # ValueError: an embedded NUL byte
        raise error(f"cannot read {what} {path}: {exc}") from exc


def read_exact(fh, n: int, what: str) -> bytes:
    """The next ``n`` bytes of ``fh``, an ``open_input`` file; fewer is a
    ``FormatError`` naming the file and ``what`` was being read."""
    data = fh.read(n)
    if len(data) != n:
        raise FormatError(f"{fh.name}: truncated while reading {what}")
    return data


def parse_json(data, error: type[BbekitError], what: str, kind: type = object):
    """``json.loads(data)``, which reads bytes in UTF-8 (with or without a
    BOM), UTF-16 or UTF-32; text that is not JSON, nesting too deep to
    parse, or a top-level value that is not a ``kind`` is ``error``."""
    try:
        value = json.loads(data)
    except (ValueError, RecursionError) as exc:  # ValueError includes UnicodeDecodeError
        raise error(f"{what} is not valid JSON: {exc}") from exc
    if not isinstance(value, kind):
        raise error(f"{what} must hold a JSON {'array' if kind is list else 'object'}")
    return value
