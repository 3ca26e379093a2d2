"""The reprolint rule catalogue.

Every diagnostic the suite can emit is registered here with a one-line
title (shown next to each finding) and a long-form explanation (served by
``python -m tools.reprolint --explain RULE``).  Rule identifiers are
stable: suppression comments reference them, so renaming one is a breaking
change for every annotated source line.
"""

from __future__ import annotations

__all__ = ["RULES", "explain", "is_rule"]


RULES: dict[str, dict[str, str]] = {
    "RX000": {
        "title": "file could not be parsed",
        "explain": """\
The file failed to parse as Python, so none of the reprolint rules could
run over it.  Fix the syntax error first — an unparseable file is treated
as a hard finding (never silently skipped) because a lint pass that skips
broken files would report a clean run it never performed.

This rule cannot be suppressed.""",
    },
    "RL100": {
        "title": "guarded attribute accessed outside its lock",
        "explain": """\
An attribute declared lock-guarded was read or written on a path that does
not hold the declared lock.

Declare a guarded attribute by annotating its initialising assignment:

    def __init__(self):
        self._lock = threading.Lock()
        self.hits = 0  # reprolint: guarded-by(_lock)

Every later ``self.hits`` access must then sit inside ``with self._lock:``
or inside a method annotated as entered with the lock already held:

    def _bump_locked(self):  # reprolint: holds(_lock)
        self.hits += 1

``__init__`` / ``__post_init__`` are exempt (no concurrent observer can
hold a reference yet).  Nested functions and lambdas are analysed with an
empty held-lock set: they may run later, on another thread, after the
enclosing ``with`` block exited.

The check is lexical, not an alias analysis: it sees ``with self.<lock>:``
blocks and ``holds(<lock>)`` annotations, nothing else.  For a genuinely
safe unlocked access (e.g. a single-threaded teardown path), suppress with
a reason:

    self.hits = 0  # reprolint: disable=RL100 -- teardown runs single-threaded""",
    },
    "RL101": {
        "title": "malformed or misplaced reprolint annotation",
        "explain": """\
A ``# reprolint:`` comment could not be parsed, names an unknown rule, or
annotates a line its directive cannot apply to — e.g. a ``guarded-by``
that is not attached to a ``self.<attr>`` assignment inside a class, or a
``holds(<lock>)`` naming a lock no guarded attribute of that class uses.

Annotation drift is itself a correctness bug: a typo'd ``guarded-by``
silently unprotects the attribute it meant to declare.  Fix the
annotation; this rule is how the suite keeps its own inputs honest.

Accepted directives (``;``-separated on one comment):

    # reprolint: guarded-by(_lock)
    # reprolint: holds(_lock)           (on or above a def line)
    # reprolint: owned-by(OwnerClass)   (on a resource-creation line)
    # reprolint: disable=RL100 -- why this is safe

A comment-only annotation line applies to the next code line below it.""",
    },
    "RR200": {
        "title": "resource may leak on some control-flow path",
        "explain": """\
A tracked resource — ``SharedMemory``, ``np.memmap``, ``sqlite3.connect``,
``ProcessPoolExecutor``, ``tempfile`` scratch, a bare ``open`` — is
created without a guarantee of release on every control-flow path.

Accepted shapes, in order of preference:

1. A ``with`` statement (the creation is a context-manager expression).
2. Release inside ``finally`` or an ``except`` handler of the enclosing
   function (``.close()`` / ``.unlink()`` / ``.shutdown()`` /
   ``.terminate()``, or ``os.close(fd)`` / ``os.unlink(path)``), so the
   error path cannot skip it.
3. The handle is returned — ownership escapes to the caller.
4. The lifetime genuinely transfers to a long-lived owner:

       self._conn = sqlite3.connect(path)  # reprolint: owned-by(Backend)

   ``owned-by`` is a claim that the named owner's ``close()`` releases the
   handle; the annotation is the audit trail for that claim.

A creation stored on ``self`` *requires* the ``owned-by`` annotation —
instance attributes outlive the creating frame, so the checker cannot see
their release.""",
    },
    "RR201": {
        "title": "resource released only on the happy path",
        "explain": """\
The resource *is* released — but only by straight-line code.  An exception
raised between the creation and the release (an allocation failure, a
``KeyboardInterrupt``, a failing intermediate call) skips the release and
leaks the handle:

    conn = sqlite3.connect(path)
    rows = conn.execute(query).fetchall()   # raises -> conn leaks
    conn.close()

Move the release into ``finally``:

    conn = sqlite3.connect(path)
    try:
        rows = conn.execute(query).fetchall()
    finally:
        conn.close()

or use a ``with`` statement / ``contextlib.closing`` when the object
supports it.""",
    },
    "RP300": {
        "title": "pickle deserialisation outside the trust boundary",
        "explain": """\
``pickle.loads`` / ``pickle.load`` executes arbitrary code from the bytes
it is given, so every call site is an implicit trust boundary.  This
repository confines deserialisation to developer-run code under
``tests/``, ``benchmarks/`` and ``examples/``; the allowlist of trusted
modules in ``src/`` is empty.

The service reads only ``/v1`` wire documents, from sockets and from its
state directory alike (the job journal stores ``request_to_wire``
documents), so a new ``pickle.loads`` anywhere else — the HTTP front end
and ``service/persistence.py`` included — is a finding.  Either switch
to a declarative format (JSON + explicit construction), or — if the new
module genuinely is a trust boundary — add it to the allowlist in
``tools/reprolint/pickles.py`` in the same change that documents why.""",
    },
    "RS400": {
        "title": "suppression without a reason",
        "explain": """\
A ``# reprolint: disable=RULE`` comment must carry a reason string:

    value = risky()  # reprolint: disable=RR200 -- handle owned by pool teardown

A bare ``disable`` is rejected *and does not suppress* — an unexplained
suppression is indistinguishable from a stale one, and the reason text is
exactly the review artefact the suppression exists to create.

This rule cannot itself be suppressed.""",
    },
}


def is_rule(rule_id: str) -> bool:
    return rule_id in RULES


def explain(rule_id: str) -> str:
    """Long-form catalogue entry for one rule (the ``--explain`` body)."""
    entry = RULES[rule_id]
    header = f"{rule_id}: {entry['title']}"
    return f"{header}\n{'=' * len(header)}\n\n{entry['explain']}\n"
