"""Experiment results: row tables, notes, paper checks.

Every figure and table of the paper's evaluation maps to one spec file
and one row function (see DESIGN.md's per-experiment index). A sweep
(:mod:`repro.experiments.compiler`) runs the row function once per
simulated configuration and collects the rows into an
:class:`ExperimentResult`, which renders a table next to the paper's
expectation so the reproduction can be eyeballed and asserted.
"""


__all__ = ["ExperimentResult"]


class ExperimentResult(object):
    """Rows of measurements plus free-form notes."""

    def __init__(self, experiment_id, title, paper_expectation=""):
        self.experiment_id = experiment_id
        self.title = title
        self.paper_expectation = paper_expectation
        self.rows = []
        self.notes = []

    def add_row(self, **fields):
        self.rows.append(dict(fields))
        return self.rows[-1]

    def note(self, text):
        self.notes.append(text)

    def column(self, name):
        """All values of one column, in row order."""
        return [row.get(name) for row in self.rows]

    def rows_where(self, **conditions):
        out = []
        for row in self.rows:
            if all(row.get(key) == value for key, value in conditions.items()):
                out.append(row)
        return out

    def value(self, column, **conditions):
        """The single value of ``column`` among rows matching conditions."""
        matches = self.rows_where(**conditions)
        if len(matches) != 1:
            raise KeyError(
                "%d rows match %r in %s" % (len(matches), conditions,
                                            self.experiment_id)
            )
        return matches[0][column]

    def to_dict(self):
        """The unified run record for this result (JSON-safe).

        Same shape every artifact shares — schema-versioned, with a
        fingerprint over the rows; see ``repro.experiments.record``.
        """
        from repro.experiments.record import make_record

        return make_record(
            self.experiment_id,
            title=self.title,
            paper_expectation=self.paper_expectation,
            rows=self.rows,
            notes=self.notes,
        )

    # -- rendering -----------------------------------------------------------

    @staticmethod
    def _fmt(value):
        if isinstance(value, float):
            if value == 0:
                return "0"
            if abs(value) >= 1000:
                return "%.0f" % value
            if abs(value) >= 1:
                return "%.2f" % value
            return "%.4g" % value
        return str(value)

    def table(self):
        """An aligned plain-text table of all rows."""
        if not self.rows:
            return "(no rows)"
        columns = []
        for row in self.rows:
            for key in row:
                if key not in columns:
                    columns.append(key)
        rendered = [[self._fmt(row.get(col, "")) for col in columns]
                    for row in self.rows]
        widths = [
            max(len(col), *(len(line[index]) for line in rendered))
            for index, col in enumerate(columns)
        ]
        header = "  ".join(col.ljust(width) for col, width in zip(columns, widths))
        separator = "  ".join("-" * width for width in widths)
        body = [
            "  ".join(cell.ljust(width) for cell, width in zip(line, widths))
            for line in rendered
        ]
        return "\n".join([header, separator] + body)

    def report(self):
        """The full report block printed by the benchmark targets."""
        lines = [
            "=" * 72,
            "%s — %s" % (self.experiment_id, self.title),
        ]
        if self.paper_expectation:
            lines.append("paper: %s" % self.paper_expectation)
        lines.append("-" * 72)
        lines.append(self.table())
        for note in self.notes:
            lines.append("note: %s" % note)
        lines.append("=" * 72)
        return "\n".join(lines)
