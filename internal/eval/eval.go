// Package eval is the experiment harness that regenerates the paper's
// evaluation (§VI): Fig. 4(a) guarantee rates, Fig. 4(b) best-solution
// costs and Fig. 4(c) switch-ASIL distributions across the four approaches,
// plus the Fig. 5 sensitivity curves (GCN depth, MLP width, K). Results
// render as text tables whose rows/series match the paper's plots.
package eval

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/asil"
	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/graph"
)

// Approach identifies one of the compared planners.
type Approach string

// The four approaches of Fig. 4.
const (
	ApproachOriginal  Approach = "original"
	ApproachTRH       Approach = "trh"
	ApproachNeuroPlan Approach = "neuroplan"
	ApproachNPTSN     Approach = "nptsn"
)

// AllApproaches lists the Fig. 4 lineup in plot order.
func AllApproaches() []Approach {
	return []Approach{ApproachOriginal, ApproachTRH, ApproachNeuroPlan, ApproachNPTSN}
}

// CaseResult is one (approach, test case) outcome.
type CaseResult struct {
	Approach     Approach
	GuaranteeMet bool
	// Cost of the best/only solution (0 when none was produced).
	Cost float64
	// SwitchLevels counts selected switches per ASIL (for Fig. 4c).
	SwitchLevels map[asil.Level]int
	// Reason explains a failed guarantee.
	Reason string
	// Solution is the best/only solution produced (nil when none).
	Solution *core.Solution
	// CertVerdict records the independent certification audit's verdict
	// ("PASS"/"FAIL") when certification was requested; empty otherwise.
	CertVerdict string
}

// switchLevelCounts extracts the ASIL histogram of a solution's switches.
func switchLevelCounts(sol *core.Solution) map[asil.Level]int {
	counts := make(map[asil.Level]int)
	if sol == nil {
		return counts
	}
	for _, lvl := range sol.Assignment.Switches {
		counts[lvl]++
	}
	return counts
}

// RunCase evaluates the selected approaches on one planning problem.
// `original` supplies the manual topology for ApproachOriginal (skipped
// when nil). Both RL approaches train under cfg as-is, so callers control
// the training budget.
func RunCase(prob *core.Problem, original *graph.Graph, cfg core.Config, approaches []Approach) (map[Approach]CaseResult, error) {
	out := make(map[Approach]CaseResult, len(approaches))
	for _, ap := range approaches {
		switch ap {
		case ApproachOriginal:
			if original == nil {
				continue
			}
			res, err := (&baselines.Original{Topology: original, AnalyzerWorkers: cfg.AnalyzerWorkers}).Plan(prob)
			if err != nil {
				return nil, fmt.Errorf("original: %w", err)
			}
			out[ap] = CaseResult{
				Approach: ap, GuaranteeMet: res.GuaranteeMet,
				Cost: res.Solution.Cost, Reason: res.Reason,
				SwitchLevels: switchLevelCounts(res.Solution),
				Solution:     res.Solution,
			}
		case ApproachTRH:
			res, err := baselines.NewTRH().Plan(prob)
			if err != nil {
				return nil, fmt.Errorf("trh: %w", err)
			}
			cr := CaseResult{Approach: ap, GuaranteeMet: res.GuaranteeMet, Reason: res.Reason}
			if res.Solution != nil {
				cr.Cost = res.Solution.Cost
				cr.SwitchLevels = switchLevelCounts(res.Solution)
				cr.Solution = res.Solution
			}
			out[ap] = cr
		case ApproachNeuroPlan:
			np, err := baselines.NewNeuroPlan(cfg)
			if err != nil {
				return nil, err
			}
			res, _, err := np.Plan(prob)
			if err != nil {
				return nil, fmt.Errorf("neuroplan: %w", err)
			}
			cr := CaseResult{Approach: ap, GuaranteeMet: res.GuaranteeMet, Reason: res.Reason}
			if res.Solution != nil {
				cr.Cost = res.Solution.Cost
				cr.SwitchLevels = switchLevelCounts(res.Solution)
				cr.Solution = res.Solution
			}
			out[ap] = cr
		case ApproachNPTSN:
			pl, err := core.NewPlanner(prob, cfg)
			if err != nil {
				return nil, err
			}
			report, err := pl.Plan()
			if err != nil {
				return nil, fmt.Errorf("nptsn: %w", err)
			}
			cr := CaseResult{Approach: ap, GuaranteeMet: report.GuaranteeMet()}
			if report.Best != nil {
				cr.Cost = report.Best.Cost
				cr.SwitchLevels = switchLevelCounts(report.Best)
				cr.Solution = report.Best
			} else {
				cr.Reason = "no valid topology discovered within the training budget"
			}
			out[ap] = cr
		default:
			return nil, fmt.Errorf("eval: unknown approach %q", ap)
		}
	}
	return out, nil
}

// Fig4Row aggregates all cases for one flow count.
type Fig4Row struct {
	Flows int
	// GuaranteeRate is the fraction of cases with the guarantee met.
	GuaranteeRate map[Approach]float64
	// MeanCost averages best-solution cost over cases where a solution was
	// produced (the paper plots solution quality).
	MeanCost map[Approach]float64
	// SwitchLevels sums the ASIL histograms over cases with solutions.
	SwitchLevels map[Approach]map[asil.Level]int
	// CertifiedRate is the fraction of certificates with verdict PASS among
	// cases where the independent audit ran (absent key = no audits).
	CertifiedRate map[Approach]float64
	// Cases is the number of test cases behind the row.
	Cases int
}

// Fig4Result is the full Fig. 4 dataset.
type Fig4Result struct {
	Rows       []Fig4Row
	Approaches []Approach
}

// Aggregate folds per-case results into a Fig4Row.
func Aggregate(flows int, cases []map[Approach]CaseResult, approaches []Approach) Fig4Row {
	row := Fig4Row{
		Flows:         flows,
		GuaranteeRate: make(map[Approach]float64),
		MeanCost:      make(map[Approach]float64),
		SwitchLevels:  make(map[Approach]map[asil.Level]int),
		CertifiedRate: make(map[Approach]float64),
		Cases:         len(cases),
	}
	counts := make(map[Approach]int)
	solved := make(map[Approach]int)
	certified := make(map[Approach]int)
	for _, c := range cases {
		for ap, r := range c {
			counts[ap]++
			if r.GuaranteeMet {
				row.GuaranteeRate[ap]++
			}
			if r.CertVerdict != "" {
				certified[ap]++
				if r.CertVerdict == "PASS" {
					row.CertifiedRate[ap]++
				}
			}
			if r.Cost > 0 {
				row.MeanCost[ap] += r.Cost
				solved[ap]++
			}
			if len(r.SwitchLevels) > 0 {
				if row.SwitchLevels[ap] == nil {
					row.SwitchLevels[ap] = make(map[asil.Level]int)
				}
				for lvl, n := range r.SwitchLevels {
					row.SwitchLevels[ap][lvl] += n
				}
			}
		}
	}
	for ap := range counts {
		row.GuaranteeRate[ap] /= float64(counts[ap])
		if solved[ap] > 0 {
			row.MeanCost[ap] /= float64(solved[ap])
		}
		if certified[ap] > 0 {
			row.CertifiedRate[ap] /= float64(certified[ap])
		} else {
			delete(row.CertifiedRate, ap)
		}
	}
	return row
}

// RenderGuarantee formats the Fig. 4(a) series: percentage of test cases
// with the reliability guarantee per flow count.
func (r *Fig4Result) RenderGuarantee() string {
	return r.render("Fig 4(a): % of test cases with reliability guarantee", func(row Fig4Row, ap Approach) string {
		return fmt.Sprintf("%5.0f%%", row.GuaranteeRate[ap]*100)
	})
}

// RenderCost formats the Fig. 4(b) series: mean best-solution network cost.
func (r *Fig4Result) RenderCost() string {
	return r.render("Fig 4(b): network cost of the best solution", func(row Fig4Row, ap Approach) string {
		c := row.MeanCost[ap]
		if c == 0 {
			return "     -"
		}
		return fmt.Sprintf("%6.1f", c)
	})
}

// RenderCertification formats the independent-audit series: percentage of
// produced solutions whose certification verdict was PASS.
func (r *Fig4Result) RenderCertification() string {
	return r.render("Certification: % of solutions passing the independent audit", func(row Fig4Row, ap Approach) string {
		rate, ok := row.CertifiedRate[ap]
		if !ok {
			return "     -"
		}
		return fmt.Sprintf("%5.0f%%", rate*100)
	})
}

// RenderASIL formats the Fig. 4(c) series: ASIL distribution of selected
// switches for the RL approaches.
func (r *Fig4Result) RenderASIL() string {
	var b strings.Builder
	b.WriteString("Fig 4(c): switch ASIL distribution (% of selected switches)\n")
	for _, ap := range []Approach{ApproachNPTSN, ApproachNeuroPlan} {
		if !r.has(ap) {
			continue
		}
		fmt.Fprintf(&b, "%s:\n", ap)
		fmt.Fprintf(&b, "  %-6s %6s %6s %6s %6s\n", "flows", "A", "B", "C", "D")
		for _, row := range r.Rows {
			hist := row.SwitchLevels[ap]
			total := 0
			for _, n := range hist {
				total += n
			}
			if total == 0 {
				fmt.Fprintf(&b, "  %-6d %6s %6s %6s %6s\n", row.Flows, "-", "-", "-", "-")
				continue
			}
			fmt.Fprintf(&b, "  %-6d", row.Flows)
			for _, lvl := range asil.Levels() {
				fmt.Fprintf(&b, " %5.1f%%", float64(hist[lvl])/float64(total)*100)
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

func (r *Fig4Result) has(ap Approach) bool {
	for _, a := range r.Approaches {
		if a == ap {
			return true
		}
	}
	return false
}

func (r *Fig4Result) render(title string, cell func(Fig4Row, Approach) string) string {
	var b strings.Builder
	b.WriteString(title + "\n")
	fmt.Fprintf(&b, "%-6s", "flows")
	for _, ap := range r.Approaches {
		fmt.Fprintf(&b, " %10s", ap)
	}
	b.WriteByte('\n')
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-6d", row.Flows)
		for _, ap := range r.Approaches {
			fmt.Fprintf(&b, " %10s", strings.TrimSpace(cell(row, ap)))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// SensitivityVariant is one curve of a Fig. 5 plot.
type SensitivityVariant struct {
	Label string
	Cfg   core.Config
}

// SensitivityResult carries the per-epoch reward curves.
type SensitivityResult struct {
	Title  string
	Labels []string
	// Rewards[label][epoch] is the epoch reward.
	Rewards map[string][]float64
	// Reports keeps the full training reports for deeper inspection.
	Reports map[string]*core.Report
}

// RunSensitivity trains NPTSN once per variant on the same problem and
// collects the epoch-reward curves (the Fig. 5 methodology: vary one
// customized parameter at a time).
func RunSensitivity(title string, prob *core.Problem, variants []SensitivityVariant) (*SensitivityResult, error) {
	res := &SensitivityResult{
		Title:   title,
		Rewards: make(map[string][]float64, len(variants)),
		Reports: make(map[string]*core.Report, len(variants)),
	}
	for _, v := range variants {
		pl, err := core.NewPlanner(prob, v.Cfg)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", v.Label, err)
		}
		report, err := pl.Plan()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", v.Label, err)
		}
		curve := make([]float64, len(report.Epochs))
		for i, e := range report.Epochs {
			curve[i] = e.Reward
		}
		res.Labels = append(res.Labels, v.Label)
		res.Rewards[v.Label] = curve
		res.Reports[v.Label] = report
	}
	return res, nil
}

// Render formats the reward curves as one row per epoch.
func (r *SensitivityResult) Render() string {
	var b strings.Builder
	b.WriteString(r.Title + "\n")
	fmt.Fprintf(&b, "%-6s", "epoch")
	for _, l := range r.Labels {
		fmt.Fprintf(&b, " %12s", l)
	}
	b.WriteByte('\n')
	maxEpochs := 0
	for _, l := range r.Labels {
		if n := len(r.Rewards[l]); n > maxEpochs {
			maxEpochs = n
		}
	}
	for e := 0; e < maxEpochs; e++ {
		fmt.Fprintf(&b, "%-6d", e+1)
		for _, l := range r.Labels {
			if e < len(r.Rewards[l]) {
				fmt.Fprintf(&b, " %12.4f", r.Rewards[l][e])
			} else {
				fmt.Fprintf(&b, " %12s", "-")
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// SortedApproaches returns a stable ordering for map iteration in reports.
func SortedApproaches(m map[Approach]CaseResult) []Approach {
	var aps []Approach
	for ap := range m {
		aps = append(aps, ap)
	}
	sort.Slice(aps, func(i, j int) bool { return aps[i] < aps[j] })
	return aps
}
