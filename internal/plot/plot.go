// Package plot renders the evaluation's line and bar charts as standalone
// SVG files using only the standard library, so the paper's figures can be
// regenerated as images (cmd/figures -svg). The styling is deliberately
// minimal: axes, ticks, legend, series in a fixed palette.
package plot

import (
	"fmt"
	"math"
	"strings"
)

// palette holds the series colors (colorblind-safe-ish defaults).
var palette = []string{
	"#4477aa", "#ee6677", "#228833", "#ccbb44", "#66ccee", "#aa3377", "#bbbbbb", "#222222",
}

// Series is one named line in a line chart.
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// Line describes a line chart.
type Line struct {
	Title  string
	XLabel string
	YLabel string
	LogY   bool // log10 y-axis (Fig 3's saturation curves need it)
	Series []Series
}

// Bar describes a grouped bar chart: one group per label, one bar per
// series within the group.
type Bar struct {
	Title   string
	YLabel  string
	Labels  []string    // group labels (e.g. benchmarks)
	Names   []string    // series names (e.g. architectures)
	Values  [][]float64 // Values[group][series]
	Stacked bool
}

const (
	width  = 760
	height = 440
	padL   = 70
	padR   = 20
	padT   = 40
	padB   = 60
	plotW  = width - padL - padR
	plotH  = height - padT - padB
)

type svgBuf struct{ strings.Builder }

func (b *svgBuf) el(format string, args ...any) {
	fmt.Fprintf(&b.Builder, format+"\n", args...)
}

func header(b *svgBuf, title string) {
	b.el(`<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d">`, width, height, width, height)
	b.el(`<rect width="%d" height="%d" fill="white"/>`, width, height)
	b.el(`<text x="%d" y="24" font-family="sans-serif" font-size="15" font-weight="bold">%s</text>`, padL, esc(title))
}

func esc(s string) string {
	s = strings.ReplaceAll(s, "&", "&amp;")
	s = strings.ReplaceAll(s, "<", "&lt;")
	s = strings.ReplaceAll(s, ">", "&gt;")
	return s
}

// niceTicks picks ~n readable tick values covering [lo, hi].
func niceTicks(lo, hi float64, n int) []float64 {
	if hi <= lo {
		hi = lo + 1
	}
	span := hi - lo
	step := math.Pow(10, math.Floor(math.Log10(span/float64(n))))
	for span/step > float64(n)*2 {
		step *= 2
	}
	for span/step > float64(n) {
		step *= 2.5
	}
	var ticks []float64
	for v := math.Ceil(lo/step) * step; v <= hi+step/1e6; v += step {
		ticks = append(ticks, v)
	}
	return ticks
}

// RenderLine produces the SVG for a line chart.
func (l *Line) RenderLine() string {
	var b svgBuf
	header(&b, l.Title)

	// Data bounds.
	minX, maxX := math.Inf(1), math.Inf(-1)
	minY, maxY := math.Inf(1), math.Inf(-1)
	for _, s := range l.Series {
		for i := range s.X {
			minX = math.Min(minX, s.X[i])
			maxX = math.Max(maxX, s.X[i])
			y := s.Y[i]
			if l.LogY {
				if y <= 0 {
					continue
				}
				y = math.Log10(y)
			}
			minY = math.Min(minY, y)
			maxY = math.Max(maxY, y)
		}
	}
	if math.IsInf(minX, 1) {
		minX, maxX, minY, maxY = 0, 1, 0, 1
	}
	if minY == maxY {
		maxY = minY + 1
	}
	xOf := func(v float64) float64 { return padL + (v-minX)/(maxX-minX)*plotW }
	yOf := func(v float64) float64 {
		if l.LogY && v > 0 {
			v = math.Log10(v)
		}
		return padT + plotH - (v-minY)/(maxY-minY)*plotH
	}

	// Axes.
	b.el(`<g stroke="#444" stroke-width="1">`)
	b.el(`<line x1="%d" y1="%d" x2="%d" y2="%d"/>`, padL, padT+plotH, padL+plotW, padT+plotH)
	b.el(`<line x1="%d" y1="%d" x2="%d" y2="%d"/>`, padL, padT, padL, padT+plotH)
	b.el(`</g>`)
	for _, tx := range niceTicks(minX, maxX, 6) {
		x := xOf(tx)
		b.el(`<line x1="%.1f" y1="%d" x2="%.1f" y2="%d" stroke="#444"/>`, x, padT+plotH, x, padT+plotH+4)
		b.el(`<text x="%.1f" y="%d" font-family="sans-serif" font-size="11" text-anchor="middle">%.3g</text>`, x, padT+plotH+18, tx)
	}
	for _, ty := range niceTicks(minY, maxY, 6) {
		label := ty
		if l.LogY {
			label = math.Pow(10, ty)
		}
		y := padT + plotH - (ty-minY)/(maxY-minY)*plotH
		b.el(`<line x1="%d" y1="%.1f" x2="%d" y2="%.1f" stroke="#ddd"/>`, padL, y, padL+plotW, y)
		b.el(`<text x="%d" y="%.1f" font-family="sans-serif" font-size="11" text-anchor="end">%.3g</text>`, padL-6, y+4, label)
	}
	b.el(`<text x="%d" y="%d" font-family="sans-serif" font-size="12" text-anchor="middle">%s</text>`,
		padL+plotW/2, height-14, esc(l.XLabel))
	b.el(`<text x="16" y="%d" font-family="sans-serif" font-size="12" text-anchor="middle" transform="rotate(-90 16 %d)">%s</text>`,
		padT+plotH/2, padT+plotH/2, esc(l.YLabel))

	// Series.
	for si, s := range l.Series {
		color := palette[si%len(palette)]
		var pts []string
		for i := range s.X {
			if l.LogY && s.Y[i] <= 0 {
				continue
			}
			pts = append(pts, fmt.Sprintf("%.1f,%.1f", xOf(s.X[i]), yOf(s.Y[i])))
		}
		if len(pts) > 1 {
			b.el(`<polyline points="%s" fill="none" stroke="%s" stroke-width="2"/>`, strings.Join(pts, " "), color)
		}
		for _, p := range pts {
			b.el(`<circle cx="%s" r="3" fill="%s"/>`, strings.Replace(p, ",", `" cy="`, 1), color)
		}
		// Legend.
		ly := padT + 14*si
		b.el(`<rect x="%d" y="%d" width="10" height="10" fill="%s"/>`, padL+plotW-150, ly, color)
		b.el(`<text x="%d" y="%d" font-family="sans-serif" font-size="11">%s</text>`, padL+plotW-135, ly+9, esc(s.Name))
	}
	b.el(`</svg>`)
	return b.String()
}

// RenderBar produces the SVG for a (grouped or stacked) bar chart.
func (c *Bar) RenderBar() string {
	var b svgBuf
	header(&b, c.Title)

	maxY := 0.0
	for _, group := range c.Values {
		if c.Stacked {
			sum := 0.0
			for _, v := range group {
				sum += v
			}
			maxY = math.Max(maxY, sum)
		} else {
			for _, v := range group {
				maxY = math.Max(maxY, v)
			}
		}
	}
	if maxY == 0 {
		maxY = 1
	}
	yOf := func(v float64) float64 { return padT + plotH - v/maxY*plotH }

	b.el(`<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="#444"/>`, padL, padT+plotH, padL+plotW, padT+plotH)
	b.el(`<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="#444"/>`, padL, padT, padL, padT+plotH)
	for _, ty := range niceTicks(0, maxY, 6) {
		y := yOf(ty)
		b.el(`<line x1="%d" y1="%.1f" x2="%d" y2="%.1f" stroke="#ddd"/>`, padL, y, padL+plotW, y)
		b.el(`<text x="%d" y="%.1f" font-family="sans-serif" font-size="11" text-anchor="end">%.3g</text>`, padL-6, y+4, ty)
	}
	b.el(`<text x="16" y="%d" font-family="sans-serif" font-size="12" text-anchor="middle" transform="rotate(-90 16 %d)">%s</text>`,
		padT+plotH/2, padT+plotH/2, esc(c.YLabel))

	groups := len(c.Labels)
	if groups == 0 {
		b.el(`</svg>`)
		return b.String()
	}
	groupW := float64(plotW) / float64(groups)
	inner := groupW * 0.8
	for gi, label := range c.Labels {
		gx := padL + groupW*float64(gi) + groupW*0.1
		if c.Stacked {
			acc := 0.0
			for si, v := range c.Values[gi] {
				y0, y1 := yOf(acc), yOf(acc+v)
				b.el(`<rect x="%.1f" y="%.1f" width="%.1f" height="%.1f" fill="%s"/>`,
					gx, y1, inner, y0-y1, palette[si%len(palette)])
				acc += v
			}
		} else {
			bw := inner / float64(len(c.Values[gi]))
			for si, v := range c.Values[gi] {
				y := yOf(v)
				b.el(`<rect x="%.1f" y="%.1f" width="%.1f" height="%.1f" fill="%s"/>`,
					gx+bw*float64(si), y, bw*0.92, float64(padT+plotH)-y, palette[si%len(palette)])
			}
		}
		b.el(`<text x="%.1f" y="%d" font-family="sans-serif" font-size="10" text-anchor="middle">%s</text>`,
			gx+inner/2, padT+plotH+16, esc(shorten(label)))
	}
	for si, name := range c.Names {
		ly := padT + 14*si
		b.el(`<rect x="%d" y="%d" width="10" height="10" fill="%s"/>`, padL+plotW-170, ly, palette[si%len(palette)])
		b.el(`<text x="%d" y="%d" font-family="sans-serif" font-size="11">%s</text>`, padL+plotW-155, ly+9, esc(name))
	}
	b.el(`</svg>`)
	return b.String()
}

func shorten(s string) string {
	if len(s) > 12 {
		return s[:11] + "…"
	}
	return s
}

// FromTable builds a grouped bar chart from a numeric table: the first
// column is the group label, remaining columns are series. Non-numeric
// cells are skipped (their series is dropped if entirely non-numeric).
func FromTable(title, ylabel string, columns []string, rows [][]string, parse func(string) (float64, bool)) *Bar {
	bar := &Bar{Title: title, YLabel: ylabel}
	if len(columns) < 2 {
		return bar
	}
	// Find numeric columns.
	numeric := make([]bool, len(columns))
	for ci := 1; ci < len(columns); ci++ {
		ok := true
		for _, row := range rows {
			if ci >= len(row) {
				ok = false
				break
			}
			if _, good := parse(row[ci]); !good {
				ok = false
				break
			}
		}
		numeric[ci] = ok
	}
	for ci := 1; ci < len(columns); ci++ {
		if numeric[ci] {
			bar.Names = append(bar.Names, columns[ci])
		}
	}
	for _, row := range rows {
		bar.Labels = append(bar.Labels, row[0])
		var vals []float64
		for ci := 1; ci < len(columns) && ci < len(row); ci++ {
			if numeric[ci] {
				v, _ := parse(row[ci])
				vals = append(vals, v)
			}
		}
		bar.Values = append(bar.Values, vals)
	}
	return bar
}
