package campaign

import (
	"fmt"
	"io"
	"sort"

	"spatialdue/internal/report"
	"spatialdue/internal/stats"
)

// This file maps campaign results onto the paper's figures. Figure numbers
// follow the paper:
//
//	Fig 2/3/4 — overall method success rate at 1% / 5% / 10% relative error
//	Fig 5/6/7 — per-application method success at 1% / 5% / 10%
//	Fig 8     — auto-tuner success (chosen method within 1%) per app
//	Fig 9     — auto-tuner picks the lowest-error method, per app
//
// Table 2 (dataset overview) is rendered by RenderTable2.

// methodLabels returns the method names in figure order.
func (r *Results) methodLabels() []string {
	out := make([]string, len(r.Methods))
	for i, m := range r.Methods {
		out[i] = m.String()
	}
	return out
}

// appLabels returns the application names.
func (r *Results) appLabels() []string {
	out := make([]string, len(r.Apps))
	for i, a := range r.Apps {
		out[i] = a.String()
	}
	return out
}

// thresholdIndex locates a threshold, tolerating float formatting noise.
func (r *Results) thresholdIndex(t float64) (int, error) {
	for i, x := range r.Thresholds {
		if x > t-1e-9 && x < t+1e-9 {
			return i, nil
		}
	}
	return 0, fmt.Errorf("campaign: threshold %v not in results (%v)", t, r.Thresholds)
}

// OverallSeries returns per-method pooled success rates at threshold t
// (the data behind Figures 2-4).
func (r *Results) OverallSeries(t float64) ([]string, []float64, error) {
	ti, err := r.thresholdIndex(t)
	if err != nil {
		return nil, nil, err
	}
	vals := make([]float64, len(r.Methods))
	for mi := range r.Methods {
		vals[mi] = r.OverallRate(mi, ti)
	}
	return r.methodLabels(), vals, nil
}

// PerAppMatrix returns [app][method] success rates at threshold t (the data
// behind Figures 5-7).
func (r *Results) PerAppMatrix(t float64) (apps, methods []string, vals [][]float64, err error) {
	ti, err := r.thresholdIndex(t)
	if err != nil {
		return nil, nil, nil, err
	}
	vals = make([][]float64, len(r.Apps))
	for ai := range r.Apps {
		vals[ai] = make([]float64, len(r.Methods))
		for mi := range r.Methods {
			vals[ai][mi] = r.AppRate(mi, ai, ti)
		}
	}
	return r.appLabels(), r.methodLabels(), vals, nil
}

// AutotuneSeries returns per-application tuner statistics: withinTol is
// Figure 8's success rate, oracle is Figure 9's lowest-error agreement.
func (r *Results) AutotuneSeries() (apps []string, withinTol, oracle []float64, err error) {
	if r.Autotune == nil {
		return nil, nil, nil, fmt.Errorf("campaign: autotuning was disabled")
	}
	withinTol = make([]float64, len(r.Apps))
	oracle = make([]float64, len(r.Apps))
	for ai, c := range r.Autotune {
		if c.Trials > 0 {
			withinTol[ai] = float64(c.WithinTol) / float64(c.Trials)
			oracle[ai] = float64(c.OracleBest) / float64(c.Trials)
		}
	}
	return r.appLabels(), withinTol, oracle, nil
}

// RenderFigure writes the ASCII rendition of one paper figure.
func (r *Results) RenderFigure(w io.Writer, fig int) error {
	switch fig {
	case 2, 3, 4:
		t := []float64{0.01, 0.05, 0.10}[fig-2]
		labels, vals, err := r.OverallSeries(t)
		if err != nil {
			return err
		}
		title := fmt.Sprintf("Figure %d: reconstructions with < %g%% relative error (all applications)", fig, t*100)
		report.Bar(w, title, labels, vals)
		return nil
	case 5, 6, 7:
		t := []float64{0.01, 0.05, 0.10}[fig-5]
		apps, methods, vals, err := r.PerAppMatrix(t)
		if err != nil {
			return err
		}
		title := fmt.Sprintf("Figure %d: reconstructions with < %g%% relative error, by application", fig, t*100)
		report.GroupedBar(w, title, apps, methods, vals)
		return nil
	case 8:
		apps, withinTol, _, err := r.AutotuneSeries()
		if err != nil {
			return err
		}
		report.Bar(w, "Figure 8: auto-tuner selection within 1% relative error (k=3)", apps, withinTol)
		return nil
	case 9:
		apps, _, oracle, err := r.AutotuneSeries()
		if err != nil {
			return err
		}
		report.Bar(w, "Figure 9: auto-tuner picks the lowest-relative-error method (k=3)", apps, oracle)
		return nil
	default:
		return fmt.Errorf("campaign: figure %d is not a campaign figure (2-9)", fig)
	}
}

// RenderFigureSVG writes one paper figure as an SVG document.
func (r *Results) RenderFigureSVG(w io.Writer, fig int) error {
	switch fig {
	case 2, 3, 4:
		t := []float64{0.01, 0.05, 0.10}[fig-2]
		labels, vals, err := r.OverallSeries(t)
		if err != nil {
			return err
		}
		title := fmt.Sprintf("Figure %d: reconstructions with < %g%% relative error (all applications)", fig, t*100)
		return report.BarSVG(w, title, labels, vals)
	case 5, 6, 7:
		t := []float64{0.01, 0.05, 0.10}[fig-5]
		apps, methods, vals, err := r.PerAppMatrix(t)
		if err != nil {
			return err
		}
		title := fmt.Sprintf("Figure %d: reconstructions with < %g%% relative error, by application", fig, t*100)
		return report.GroupedBarSVG(w, title, apps, methods, vals)
	case 8:
		apps, withinTol, _, err := r.AutotuneSeries()
		if err != nil {
			return err
		}
		return report.BarSVG(w, "Figure 8: auto-tuner selection within 1% relative error (k=3)", apps, withinTol)
	case 9:
		apps, _, oracle, err := r.AutotuneSeries()
		if err != nil {
			return err
		}
		return report.BarSVG(w, "Figure 9: auto-tuner picks the lowest-relative-error method (k=3)", apps, oracle)
	default:
		return fmt.Errorf("campaign: figure %d is not a campaign figure (2-9)", fig)
	}
}

// RenderTable2 writes the dataset overview table (paper Table 2) for the
// datasets actually evaluated, including the measured smoothness score.
func (r *Results) RenderTable2(w io.Writer) {
	type agg struct {
		count int
		dims  []int
	}
	perApp := map[string]*agg{}
	var order []string
	for _, d := range r.Datasets {
		k := d.App.String()
		if perApp[k] == nil {
			perApp[k] = &agg{dims: d.Dims}
			order = append(order, k)
		}
		perApp[k].count++
	}
	sort.Strings(order)
	rows := make([][]string, 0, len(order))
	for _, k := range order {
		a := perApp[k]
		rows = append(rows, []string{k, dimsString(a.dims), fmt.Sprint(a.count)})
	}
	report.Table(w, []string{"Name", "Data Dimensions", "Data Set Count"}, rows)
}

// WriteOverallCSV emits the pooled success rates (Figures 2-4) as CSV,
// with 95% Wilson confidence intervals per threshold.
func (r *Results) WriteOverallCSV(w io.Writer) error {
	headers := []string{"method"}
	for _, t := range r.Thresholds {
		headers = append(headers,
			fmt.Sprintf("rate_le_%g", t),
			fmt.Sprintf("ci95_lo_%g", t),
			fmt.Sprintf("ci95_hi_%g", t))
	}
	headers = append(headers, "mean_rel_err", "median_rel_err", "trials")
	var rows [][]string
	for mi, m := range r.Methods {
		row := []string{m.String()}
		for ti := range r.Thresholds {
			hits, trials := 0, 0
			for _, c := range r.PerMethodApp[mi] {
				hits += c.Hits[ti]
				trials += c.Trials
			}
			lo, hi := stats.WilsonInterval(hits, trials)
			row = append(row,
				fmt.Sprintf("%.6f", r.OverallRate(mi, ti)),
				fmt.Sprintf("%.6f", lo),
				fmt.Sprintf("%.6f", hi))
		}
		var mean, med float64
		var trials int
		pooled := r.pooledCell(mi)
		mean, med, trials = pooled.MeanRelErr(), pooled.MedianRelErr(), pooled.Trials
		row = append(row, fmt.Sprintf("%.6g", mean), fmt.Sprintf("%.6g", med), fmt.Sprint(trials))
		rows = append(rows, row)
	}
	return report.CSV(w, headers, rows)
}

// WritePerAppCSV emits per-application success rates (Figures 5-7) as CSV.
func (r *Results) WritePerAppCSV(w io.Writer) error {
	headers := []string{"app", "method"}
	for _, t := range r.Thresholds {
		headers = append(headers, fmt.Sprintf("rate_le_%g", t))
	}
	headers = append(headers, "trials")
	var rows [][]string
	for ai, app := range r.Apps {
		for mi, m := range r.Methods {
			row := []string{app.String(), m.String()}
			for ti := range r.Thresholds {
				row = append(row, fmt.Sprintf("%.6f", r.AppRate(mi, ai, ti)))
			}
			row = append(row, fmt.Sprint(r.PerMethodApp[mi][ai].Trials))
			rows = append(rows, row)
		}
	}
	return report.CSV(w, headers, rows)
}

// WriteAutotuneCSV emits the tuner statistics (Figures 8-9) as CSV.
func (r *Results) WriteAutotuneCSV(w io.Writer) error {
	if r.Autotune == nil {
		return fmt.Errorf("campaign: autotuning was disabled")
	}
	headers := []string{"app", "trials", "within_tol_rate", "oracle_best_rate"}
	var rows [][]string
	for ai, app := range r.Apps {
		c := r.Autotune[ai]
		wt, ob := 0.0, 0.0
		if c.Trials > 0 {
			wt = float64(c.WithinTol) / float64(c.Trials)
			ob = float64(c.OracleBest) / float64(c.Trials)
		}
		rows = append(rows, []string{
			app.String(), fmt.Sprint(c.Trials),
			fmt.Sprintf("%.6f", wt), fmt.Sprintf("%.6f", ob),
		})
	}
	return report.CSV(w, headers, rows)
}

// WriteQuantilesCSV emits per-method relative-error quantiles (pooled over
// all applications, from the reservoir samples) — the distributional view
// behind the paper's "over half of its reconstructions having less than 1%
// relative error" conclusion.
func (r *Results) WriteQuantilesCSV(w io.Writer) error {
	qs := []float64{0.25, 0.50, 0.75, 0.90, 0.99}
	headers := []string{"method"}
	for _, q := range qs {
		headers = append(headers, fmt.Sprintf("p%02.0f", q*100))
	}
	var rows [][]string
	for mi, m := range r.Methods {
		pooled := r.pooledCell(mi)
		sample := append([]float64(nil), pooled.Sample...)
		sort.Float64s(sample)
		row := []string{m.String()}
		for _, q := range qs {
			row = append(row, fmt.Sprintf("%.6g", stats.Quantile(sample, q)))
		}
		rows = append(rows, row)
	}
	return report.CSV(w, headers, rows)
}

func dimsString(dims []int) string {
	s := ""
	for i, d := range dims {
		if i > 0 {
			s += " x "
		}
		s += fmt.Sprint(d)
	}
	return s
}
