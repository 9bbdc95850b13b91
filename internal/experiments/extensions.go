package experiments

import (
	"fmt"

	"repro/internal/barnes"
	"repro/internal/graph"
	"repro/internal/hl"
	"repro/internal/melo"
	"repro/internal/partition"
	"repro/internal/vecpart"
	"repro/internal/vkp"
)

// TableExtensions compares the repository's beyond-the-paper partitioners
// against MELO on 4-way Scaled Cost: the direct vector k-partitioning
// heuristic (vkp, the paper's proposed future work), Barnes'
// transportation rounding, and Hendrickson–Leland median splitting
// (k = 2² = 4). Lower is better.
func TableExtensions(l *Lab) error {
	cfg := l.Config()
	const k = 4
	t := &table{header: []string{"circuit", "MELO", "VKP", "Barnes", "HL(2^2)"}}
	type row struct{ melo, vkp, barnes, hl float64 }
	rows, err := forEachBenchmark(l, func(name string) (row, error) {
		var out row
		h, err := l.Netlist(name)
		if err != nil {
			return out, err
		}
		g, err := l.Graph(name, graph.PartitioningSpecific)
		if err != nil {
			return out, err
		}
		dec, err := l.Decomposition(name, graph.PartitioningSpecific, cfg.D)
		if err != nil {
			return out, err
		}

		// MELO ordering + DP-RP (single scheme-#1 d=10 ordering: this
		// table compares algorithms under equal effort, not the Table 4
		// best-of protocol).
		meloSC, err := l.MeloScaledCost(name, cfg.D, melo.SchemeGain, k)
		if err != nil {
			return out, err
		}
		out.melo = meloSC

		// VKP on the same eigenvectors.
		vectors, err := vecpart.MaxSumInstance(dec, cfg.D, g.TotalDegree())
		if err != nil {
			return out, err
		}
		vres, err := vkp.Partition(vectors, vkp.Options{K: k})
		if err != nil {
			return out, err
		}
		out.vkp = partition.ScaledCost(h, vres.Partition)

		// Barnes.
		bp, err := barnes.PartitionCtx(cfg.Ctx, g, barnes.Options{K: k, SignFlips: true})
		if err != nil {
			return out, err
		}
		out.barnes = partition.ScaledCost(h, bp)

		// Hendrickson–Leland with d = 2 → 4 clusters.
		hp, err := hl.Partition(dec, 2)
		if err != nil {
			return out, err
		}
		out.hl = partition.ScaledCost(h, hp)
		return out, nil
	})
	if err != nil {
		return err
	}
	var meloV, vkpV, barnesV, hlV []float64
	for bi, name := range cfg.Benchmarks {
		r := rows[bi]
		meloV = append(meloV, r.melo)
		vkpV = append(vkpV, r.vkp)
		barnesV = append(barnesV, r.barnes)
		hlV = append(hlV, r.hl)
		t.addRow(name,
			fmt.Sprintf("%.4f", r.melo*1e4),
			fmt.Sprintf("%.4f", r.vkp*1e4),
			fmt.Sprintf("%.4f", r.barnes*1e4),
			fmt.Sprintf("%.4f", r.hl*1e4))
	}
	t.addRow("MELO avg improvement", "-",
		fmt.Sprintf("%+.1f%%", avgImprovement(vkpV, meloV)),
		fmt.Sprintf("%+.1f%%", avgImprovement(barnesV, meloV)),
		fmt.Sprintf("%+.1f%%", avgImprovement(hlV, meloV)))
	t.render(cfg.Out, "Extensions: 4-way Scaled Cost (x1e4) — MELO vs direct vector k-partitioning vs Barnes vs Hendrickson-Leland")
	return nil
}
