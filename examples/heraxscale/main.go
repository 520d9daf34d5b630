// heraxscale reproduces the four Section 4.2 tables of the paper for the
// Hera/XScale configuration: for each first-execution speed σ1 and each
// bound ρ ∈ {8, 3, 1.775, 1.4}, the best re-execution speed σ2, the
// optimal pattern size, and the energy overhead. The printed numbers
// match the paper row for row.
package main

import (
	"cmp"
	"fmt"
	"log"
	"math"
	"slices"

	"respeed"
	"respeed/internal/tablefmt"
)

func main() {
	cfg, ok := respeed.ConfigByName("Hera/XScale")
	if !ok {
		log.Fatal("Hera/XScale not in catalog")
	}

	for _, rho := range []float64{8, 3, 1.775, 1.4} {
		fmt.Printf("ρ = %g\n", rho)
		tab := tablefmt.New("σ1", "Best σ2", "Wopt", "E(Wopt,σ1,σ2)/Wopt")
		for _, r := range respeed.Sigma1Table(cfg, rho) {
			if !r.Feasible {
				tab.AddRow(tablefmt.Cell(r.Sigma1), "-", "-", "-")
				continue
			}
			tab.AddRowValues(r.Sigma1, r.Sigma2, math.Floor(r.W), math.Floor(r.EnergyOverhead))
		}
		fmt.Println(tab.String())

		if sol, err := respeed.Solve(cfg, rho); err == nil {
			fmt.Printf("optimal pair: (%g, %g)\n\n", sol.Best.Sigma1, sol.Best.Sigma2)
		} else {
			fmt.Printf("infeasible\n\n")
		}
	}

	// The paper's observation: almost any pair (except those with the
	// very low 0.15 speed) becomes optimal for SOME ρ. Demonstrate by
	// scanning bounds and collecting the winners.
	winners := map[[2]float64]float64{}
	for rho := 1.05; rho <= 9; rho += 0.005 {
		sol, err := respeed.Solve(cfg, rho)
		if err != nil {
			continue
		}
		key := [2]float64{sol.Best.Sigma1, sol.Best.Sigma2}
		if _, seen := winners[key]; !seen {
			winners[key] = rho
		}
	}
	fmt.Printf("distinct optimal pairs across ρ ∈ [1.05, 9]: %d\n", len(winners))
	// In order of first-optimal ρ, ties by pair: map order varies by run.
	pairs := make([][2]float64, 0, len(winners))
	for pair := range winners {
		pairs = append(pairs, pair)
	}
	slices.SortFunc(pairs, func(a, b [2]float64) int {
		return cmp.Or(cmp.Compare(winners[a], winners[b]), slices.Compare(a[:], b[:]))
	})
	for _, pair := range pairs {
		fmt.Printf("  (%g, %g) first optimal at ρ ≈ %.3f\n", pair[0], pair[1], winners[pair])
	}
}
