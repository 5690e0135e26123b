// Subset exploration: walk the accuracy-versus-reduction trade-off of
// Figure 3 on the NAS suite. More clusters mean lower prediction
// error but a smaller benchmarking reduction; the elbow rule picks a
// balanced cut.
//
// Run with:
//
//	go run ./examples/subsetexplore
package main

import (
	"context"
	"fmt"
	"log"

	"fgbs"
)

func main() {
	prof, err := fgbs.NewProfile(fgbs.NASSuite(), fgbs.Options{Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	mask := fgbs.DefaultFeatures()

	elbowSub, err := prof.Subset(mask, 0) // K = 0: the elbow rule picks the cut
	if err != nil {
		log.Fatal(err)
	}
	elbow := elbowSub.RequestedK

	fmt.Println("  K  | median error per target        | benchmarking reduction")
	fmt.Print("     |")
	for _, m := range prof.Targets {
		fmt.Printf(" %-9.9s", m.Name)
	}
	fmt.Print(" |")
	for _, m := range prof.Targets {
		fmt.Printf(" %-9.9s", m.Name)
	}
	fmt.Println()

	pts, err := prof.SweepKContext(context.Background(), mask, 2, 24)
	if err != nil {
		log.Fatal(err)
	}
	for _, pt := range pts {
		marker := "  "
		if pt.K == elbow {
			marker = "<-"
		}
		fmt.Printf(" %3d |", pt.K)
		for t := range prof.Targets {
			fmt.Printf(" %7.1f%% ", pt.MedianError[t]*100)
		}
		fmt.Print(" |")
		for t := range prof.Targets {
			fmt.Printf("   x%-6.1f", pt.Reduction[t])
		}
		fmt.Println(" ", marker)
	}
	fmt.Printf("\nelbow-selected K = %d (paper: 18 of 67 codelets)\n", elbow)
}
