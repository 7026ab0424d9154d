// Degraded figure emission. When a Runner is in Partial mode a failed run
// no longer aborts the figure that needs it: row-shaped figures render
// every row they can and annotate the missing ones, and aggregate figures
// drop the failed benchmark from their averages while recording why. With
// Partial off (the default) every helper here degenerates to "return the
// error", so fully-successful campaigns render byte-identical output.
package experiments

import "fmt"

// missingCell marks a value a degraded figure could not compute.
const missingCell = "—"

// noteMissing flags the table degraded and records what is missing. An
// already-recorded note is not repeated (figures with several rows per
// benchmark would otherwise duplicate it).
func (t *Table) noteMissing(label string, err error) {
	t.Degraded = true
	n := fmt.Sprintf("missing %s: %v", label, err)
	for _, existing := range t.Notes {
		if existing == n {
			return
		}
	}
	t.Notes = append(t.Notes, n)
}

// row appends one table row: label in the first column, then the cells
// build returns. If build fails and the Runner is in Partial mode, an
// annotated placeholder row (label + missing-cell markers) is appended
// instead and the error is swallowed into a table note; otherwise the
// error aborts the figure as before.
func (r *Runner) row(t *Table, label string, build func() ([]string, error)) error {
	cells, err := build()
	if err == nil {
		t.Rows = append(t.Rows, append([]string{label}, cells...))
		return nil
	}
	if !r.Partial {
		return err
	}
	missing := make([]string, 0, len(t.Columns))
	missing = append(missing, label)
	for i := 1; i < len(t.Columns); i++ {
		missing = append(missing, missingCell)
	}
	t.Rows = append(t.Rows, missing)
	t.noteMissing(label, err)
	return nil
}
