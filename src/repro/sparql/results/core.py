"""Query solutions and result sets.

A *solution* is an immutable-ish mapping from :class:`Variable` to RDF terms.
A :class:`ResultSet` is the ordered collection of solutions a SELECT query
returns, with helpers to convert to plain-Python rows, to tabular text and to
the (variable -> value) dictionaries the KGNet inference manager consumes.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence

from repro.rdf.terms import Term, Variable, python_from_term

__all__ = ["Solution", "ResultSet"]


class Solution(dict):
    """A single variable binding row (Variable -> Term)."""

    def merged(self, other: "Solution") -> Optional["Solution"]:
        """Join-compatible merge: returns None when shared variables clash."""
        for key, value in other.items():
            if key in self and self[key] != value:
                return None
        result = Solution(self)
        result.update(other)
        return result

    def project(self, variables: Sequence[Variable]) -> "Solution":
        return Solution({v: self[v] for v in variables if v in self})

    def get_value(self, name: str) -> Optional[Term]:
        """Look up a binding by bare variable name (without ``?``)."""
        return self.get(Variable(name))

    def to_python(self) -> Dict[str, object]:
        return {var.name: python_from_term(term) for var, term in self.items()}

    def __hash__(self) -> int:  # needed for DISTINCT
        return hash(frozenset(self.items()))


class ResultSet:
    """The result of a SELECT query.

    The evaluator hands its results over as *id rows* (:meth:`from_ids`):
    tuples of term ids aligned with :attr:`variables`, plus the ``decode``
    that turns an id into its term.  :attr:`solutions` decodes them on first
    access, so a caller that only counts rows or serializes them (the
    writers in :mod:`~repro.sparql.results.serialize` work from the ids)
    never builds a ``Solution``; once decoded, the ids are dropped.
    """

    def __init__(self, variables: Sequence[Variable],
                 solutions: Iterable[Solution]) -> None:
        self.variables: List[Variable] = list(variables)
        self._solutions: Optional[List[Solution]] = list(solutions)
        self.id_rows: Optional[List[Sequence[Optional[int]]]] = None
        self.terms = None

    @classmethod
    def from_ids(cls, variables: Sequence[Variable],
                 id_rows: List[Sequence[Optional[int]]], terms) -> "ResultSet":
        """Wrap evaluator output: ``terms.decode(id)`` is the cell's term."""
        result = cls(variables, ())
        result._solutions = None
        result.id_rows = id_rows
        result.terms = terms
        return result

    @property
    def solutions(self) -> List[Solution]:
        if self._solutions is None:
            decode: Callable[[int], Term] = self.terms.decode
            variables = self.variables
            self._solutions = [
                Solution({var: decode(cell) for var, cell in zip(variables, row)
                          if cell is not None})
                for row in self.id_rows]
            # One source of truth from here on: callers may edit the list.
            self.id_rows = self.terms = None
        return self._solutions

    def __len__(self) -> int:
        return len(self.id_rows if self._solutions is None else self._solutions)

    def __iter__(self) -> Iterator[Solution]:
        return iter(self.solutions)

    def __bool__(self) -> bool:
        return len(self) > 0

    def __getitem__(self, index: int) -> Solution:
        return self.solutions[index]

    def rows(self) -> List[List[Optional[Term]]]:
        """Return solutions as rows aligned with :attr:`variables`."""
        return [[sol.get(var) for var in self.variables] for sol in self.solutions]

    def to_python(self) -> List[Dict[str, object]]:
        """Plain-Python dictionaries (IRIs as strings, literals as values)."""
        return [sol.to_python() for sol in self.solutions]

    def column(self, name: str) -> List[Optional[Term]]:
        var = Variable(name)
        return [sol.get(var) for sol in self.solutions]

    def to_table(self, max_rows: Optional[int] = None) -> str:
        """Render the result set as an aligned text table for demos/examples."""
        headers = [f"?{var.name}" for var in self.variables]
        body = []
        for sol in self.solutions[: max_rows if max_rows is not None else len(self.solutions)]:
            body.append([
                (sol.get(var).n3() if sol.get(var) is not None else "") for var in self.variables
            ])
        widths = [len(h) for h in headers]
        for row in body:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        lines = [" | ".join(h.ljust(widths[i]) for i, h in enumerate(headers))]
        lines.append("-+-".join("-" * w for w in widths))
        for row in body:
            lines.append(" | ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
        if max_rows is not None and len(self.solutions) > max_rows:
            lines.append(f"... ({len(self.solutions) - max_rows} more rows)")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"<ResultSet {len(self.solutions)} rows x {len(self.variables)} vars>"
