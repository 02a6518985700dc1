"""The ``/v1/order`` request schema: JSON payload -> executable cell.

A request names **exactly one** pattern source —

``problem``
    A registered paper problem (plus optional ``scale``), rebuilt inside
    the worker through the per-worker problem cache and the persistent
    ``--store`` cache, so repeated requests are warm.
``coo`` / ``csr``
    The structure inline: ``{"n": ..., "rows": [...], "cols": [...]}``
    (symmetrized, self-loops dropped) or ``{"n": ..., "indptr": [...],
    "indices": [...]}`` (must already be the canonical symmetric CSR form;
    validated).
``matrix_market`` / ``harwell_boeing``
    A file upload as text, parsed by the same readers the CLI uses.

— plus the algorithm and run parameters.  :func:`parse_order_request` turns
the payload into an :class:`OrderSpec` holding the same
:class:`~repro.batch.tasks.BatchTask` a ``repro suite`` run would build for
that cell (identical label normalization and seed derivation), which is what
makes server results byte-identical to batch results in canonical form.

Every validation failure raises
:class:`~repro.serve.protocol.ProtocolError` with a 4xx status and a
structured error type; nothing in here may raise anything else for
attacker-controlled input (fuzz-pinned).
"""

from __future__ import annotations

import hashlib
import inspect
import io
from dataclasses import dataclass

from repro.batch.tasks import build_task, derive_seed
from repro.collections.registry import all_problems, get_problem_spec
from repro.eigen.fiedler import SOLVER_OPTIONS
from repro.orderings.registry import ORDERING_ALGORITHMS
from repro.serve.protocol import ProtocolError
from repro.store.core import canonical_params
from repro.store.spectral import pattern_digest, problem_digest

__all__ = [
    "DEFAULT_MAX_INLINE_N",
    "MAX_DELAY_S",
    "OrderSpec",
    "PATTERN_SOURCES",
    "inline_label",
    "parse_order_request",
]

#: Pattern-source keys; a request must carry exactly one.
PATTERN_SOURCES = ("problem", "coo", "csr", "matrix_market", "harwell_boeing")

#: Largest inline/uploaded matrix order accepted by default.  ``n`` bounds
#: the dense-in-``n`` allocations (indptr, permutation, frontier arrays), so
#: it must be capped *before* any array is built — a four-byte body asking
#: for ``n=10**12`` must cost nothing.
DEFAULT_MAX_INLINE_N = 2_000_000

#: Cap on the ``debug_delay_s`` load-testing knob.
MAX_DELAY_S = 30.0


def _bad(message: str, error_type: str = "InvalidOrderRequest") -> ProtocolError:
    return ProtocolError(400, message, error_type)


def inline_label(digest: str) -> str:
    """The task label of a directly-supplied pattern: ``inline:<digest12>``.

    Shared with the ``repro order`` client so the client's in-process
    fallback derives the same per-task seed as the server for the same
    structure.
    """
    return f"inline:{digest[:12]}"


@dataclass
class OrderSpec:
    """One validated ordering request, ready to execute.

    ``task`` is the batch cell (label, algorithm, scale, seed, options);
    ``pattern`` is the inline/uploaded structure, or ``None`` for registry
    problems (built inside the worker, cache-assisted).  ``key`` is the
    coalescing identity: requests with equal keys are provably the same
    computation and share one worker slot.
    """

    task: object
    pattern: object | None
    key: str
    mode: str = "sync"
    include_permutation: bool = False
    timeout_s: float | None = None
    delay_s: float = 0.0


def _require_int(payload: dict, name: str, *, minimum: int | None = None,
                 maximum: int | None = None, default=None):
    value = payload.get(name, default)
    if value is default and default is None and name not in payload:
        return None
    if isinstance(value, bool) or not isinstance(value, int):
        raise _bad(f"{name!r} must be an integer")
    if minimum is not None and value < minimum:
        raise _bad(f"{name!r} must be >= {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise _bad(f"{name!r} must be <= {maximum}, got {value}")
    return value


def _require_number(payload: dict, name: str, *, minimum=None, maximum=None):
    if name not in payload:
        return None
    value = payload[name]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _bad(f"{name!r} must be a number")
    value = float(value)
    if value != value or value in (float("inf"), float("-inf")):
        raise _bad(f"{name!r} must be finite")
    if minimum is not None and value < minimum:
        raise _bad(f"{name!r} must be >= {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise _bad(f"{name!r} must be <= {maximum}, got {value}")
    return value


def _int_list(source: dict, name: str, owner: str):
    value = source.get(name)
    if not isinstance(value, list):
        raise _bad(f"{owner}.{name} must be a list of integers")
    # One pass over the item types: JSON true/false decode to bool, not int.
    if not set(map(type, value)) <= {int}:
        raise _bad(f"{owner}.{name} must hold only integers")
    return value


def _build_inline_pattern(payload: dict, max_inline_n: int):
    """Build the pattern of a non-registry request; 4xx on anything wrong."""
    from repro.sparse.pattern import SymmetricPattern

    if "coo" in payload:
        source = payload["coo"]
        if not isinstance(source, dict):
            raise _bad("'coo' must be an object with keys n, rows, cols")
        n = _require_int(source, "n", minimum=0, maximum=max_inline_n)
        if n is None:
            raise _bad("'coo' needs an integer 'n' >= 0 "
                       f"(<= {max_inline_n})")
        rows = _int_list(source, "rows", "coo")
        cols = _int_list(source, "cols", "coo")
        try:
            return SymmetricPattern.from_edge_arrays(n, rows, cols)
        except (ValueError, TypeError, OverflowError) as exc:
            raise _bad(f"invalid COO pattern: {exc}") from None

    if "csr" in payload:
        source = payload["csr"]
        if not isinstance(source, dict):
            raise _bad("'csr' must be an object with keys n, indptr, indices")
        n = _require_int(source, "n", minimum=0, maximum=max_inline_n)
        if n is None:
            raise _bad("'csr' needs an integer 'n' >= 0 "
                       f"(<= {max_inline_n})")
        indptr = _int_list(source, "indptr", "csr")
        indices = _int_list(source, "indices", "csr")
        try:
            pattern = SymmetricPattern(n, indptr, indices)
            pattern.validate()
        except (ValueError, TypeError, IndexError, OverflowError) as exc:
            raise _bad(f"invalid CSR pattern: {exc}") from None
        return pattern

    name = "matrix_market" if "matrix_market" in payload else "harwell_boeing"
    text = payload[name]
    if not isinstance(text, str):
        raise _bad(f"{name!r} must be the file contents as a string")
    try:
        if name == "matrix_market":
            from repro.sparse.io_mm import read_matrix_market

            matrix = read_matrix_market(io.StringIO(text))
        else:
            from repro.sparse.io_hb import read_harwell_boeing

            matrix = read_harwell_boeing(io.StringIO(text))
        if max(matrix.shape) > max_inline_n:
            raise _bad(f"uploaded matrix order {max(matrix.shape)} exceeds "
                       f"the limit of {max_inline_n}")
        from repro.sparse.ops import structure_from_matrix

        return structure_from_matrix(matrix)
    except ProtocolError:
        raise
    except Exception as exc:
        # The readers raise ValueError for format errors, but a hostile
        # file can reach numpy/scipy edges too; all of it is client input.
        raise _bad(f"cannot parse {name} upload: "
                   f"{type(exc).__name__}: {exc}") from None


def _keyword_names(parameters) -> set[str]:
    """The names of *parameters*, after the first, that take a keyword."""
    return {p.name for p in list(parameters)[1:]
            if p.kind in (p.POSITIONAL_OR_KEYWORD, p.KEYWORD_ONLY)}


#: What the ``**solver_options`` of the spectral and hybrid orderings may
#: name under ``auto``: every option some Fiedler solver takes.
_SOLVER_OPTIONS = frozenset().union(*SOLVER_OPTIONS.values())


def _check_option_names(algorithm: str, options: dict) -> None:
    """Reject option names the algorithm's signature cannot accept.

    Without this, an unknown option sails through validation and dies as a
    ``TypeError`` inside the worker — a 500 for what is plainly a client
    mistake.  An algorithm taking ``**solver_options`` (spectral, hybrid)
    forwards them to :func:`~repro.eigen.fiedler.fiedler_vector`, so it
    also accepts the options of the solver ``options["method"]`` names, or
    of every Fiedler solver under ``auto``, which forwards each component's
    solver only what it takes.
    """
    func = ORDERING_ALGORITHMS[algorithm]
    try:
        parameters = list(inspect.signature(func).parameters.values())
    except (TypeError, ValueError):  # exotic callables: let the worker judge
        return
    accepted = _keyword_names(parameters)
    label = f"algorithm {algorithm!r}"
    if any(p.kind is p.VAR_KEYWORD for p in parameters):
        method = options.get("method")
        if isinstance(method, str) and method in SOLVER_OPTIONS:
            accepted |= SOLVER_OPTIONS[method]
            label += f" with method {method!r}"
        else:
            accepted |= _SOLVER_OPTIONS
    unknown = sorted(set(options) - accepted)
    if unknown:
        raise ProtocolError(
            400,
            f"unknown option(s) {unknown} for {label}; accepted: {sorted(accepted)}",
            "UnknownOption",
        )


def parse_order_request(
    payload,
    *,
    max_inline_n: int = DEFAULT_MAX_INLINE_N,
    allow_delay: bool = True,
) -> OrderSpec:
    """Validate a ``POST /v1/order`` JSON document into an :class:`OrderSpec`.

    Raises :class:`~repro.serve.protocol.ProtocolError` (400) on every
    malformed or unknown field; the server turns that into the structured
    4xx body.  ``allow_delay=False`` rejects the ``debug_delay_s`` testing
    knob (servers started with ``--no-debug-delay``).
    """
    if not isinstance(payload, dict):
        raise _bad("request body must be a JSON object")

    algorithm = payload.get("algorithm")
    if not isinstance(algorithm, str) or algorithm not in ORDERING_ALGORITHMS:
        raise ProtocolError(
            400,
            f"unknown algorithm {algorithm!r}; available: "
            f"{sorted(ORDERING_ALGORITHMS)}",
            "UnknownAlgorithm",
        )

    sources = [name for name in PATTERN_SOURCES if name in payload]
    if len(sources) != 1:
        raise _bad(
            f"give exactly one pattern source of {list(PATTERN_SOURCES)}; "
            f"got {sources or 'none'}"
        )
    source = sources[0]

    options = payload.get("options", {})
    if not isinstance(options, dict):
        raise _bad("'options' must be an object of algorithm keyword arguments")
    try:
        options_text = canonical_params(options)
    except (TypeError, ValueError) as exc:
        raise _bad(f"'options' must be JSON-canonicalizable: {exc}") from None
    _check_option_names(algorithm, options)

    mode = payload.get("mode", "sync")
    if mode not in ("sync", "async"):
        raise _bad(f"'mode' must be 'sync' or 'async', got {mode!r}")
    # Off by default: a permutation is O(n) response weight, and metric
    # consumers don't need it.
    include_permutation = payload.get("include_permutation", False)
    if not isinstance(include_permutation, bool):
        raise _bad("'include_permutation' must be a boolean")
    base_seed = _require_int(payload, "base_seed", default=0) or 0
    explicit_seed = _require_int(payload, "seed", minimum=0)
    timeout_s = _require_number(payload, "timeout_s", minimum=0.001)
    delay_s = _require_number(payload, "debug_delay_s", minimum=0.0,
                              maximum=MAX_DELAY_S) or 0.0
    if delay_s and not allow_delay:
        raise _bad("'debug_delay_s' is disabled on this server", "DelayDisabled")

    scale = _require_number(payload, "scale", minimum=1e-9)
    if source == "problem":
        name = payload["problem"]
        if not isinstance(name, str):
            raise _bad("'problem' must be a registered problem name")
        name = name.strip().upper()
        if get_problem_spec(name) is None:
            raise ProtocolError(
                400,
                f"unknown problem {name!r}; available: "
                f"{', '.join(sorted(all_problems()))}",
                "UnknownProblem",
            )
        pattern = None
        label = name
        digest = problem_digest(name, scale)
        task_scale = scale
    else:
        if scale is not None:
            raise _bad("'scale' only applies to registry problems")
        pattern = _build_inline_pattern(payload, max_inline_n)
        digest = pattern_digest(pattern)
        label = inline_label(digest)
        task_scale = None

    seed = (derive_seed(base_seed, label, algorithm)
            if explicit_seed is None else explicit_seed)
    task = build_task(label, algorithm, scale=task_scale, options=options,
                      seed=seed, check_problem=False)

    key_text = "\x1f".join([
        digest, algorithm, options_text, str(seed),
        repr(timeout_s), repr(delay_s),
    ])
    key = hashlib.sha256(key_text.encode("utf-8")).hexdigest()
    return OrderSpec(task=task, pattern=pattern, key=key, mode=mode,
                     include_permutation=include_permutation,
                     timeout_s=timeout_s, delay_s=delay_s)
