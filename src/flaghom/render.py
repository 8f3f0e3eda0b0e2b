"""Plain-text renderers: fillings with their basement column, bare diagrams,
and tabloids labelled by snake index.  Rows print top down, row 1 last."""

from .compositions import as_int


def _grid_lines(n, width, cell):
    """Rows n..1 as strings; cell(c, r) supplies each token or None."""
    tokens = {(c, r): cell(c, r) for r in range(1, n + 1) for c in range(1, width + 1)}
    pad = max((len(t) for t in tokens.values() if t is not None), default=1)
    lines = []
    for r in range(n, 0, -1):
        row = [tokens[(c, r)] or "." for c in range(1, width + 1)]
        body = " ".join(t.rjust(pad) for t in row).rstrip()
        lines.append(f"{r:>2} | {body}".rstrip())
    return lines


def render_filling(rows, n=None):
    rows = tuple(tuple(r) for r in rows)
    n = max(len(rows), 0 if n is None else as_int(n))
    width = max((len(r) for r in rows), default=0)

    def cell(c, r):
        return str(rows[r - 1][c - 1]) if r <= len(rows) and c <= len(rows[r - 1]) else None

    return "\n".join(_grid_lines(n, width, cell))


def render_diagram(D, n=None):
    D = frozenset(D)
    n = max(max((r for _, r in D), default=1), 0 if n is None else as_int(n))
    width = max((c for c, _ in D), default=0)
    return "\n".join(_grid_lines(n, width, lambda c, r: "#" if (c, r) in D else None))


def render_tabloid(tabloid):
    owner = {cell: str(i) for i, S in enumerate(tabloid.snakes, start=1) for cell in S}
    n = len(tabloid.shape)
    width = max(tabloid.shape, default=0)
    lines = _grid_lines(n, width, lambda c, r: owner.get((c, r)))
    lines.append(f"weight {list(tabloid.weight())}  sign {tabloid.sign():+d}")
    return "\n".join(lines)


def render_matrix(A):
    width = max((len(str(x)) for row in A for x in row), default=1)
    return "\n".join(" ".join(str(x).rjust(width) for x in row) for row in A)
