// Pragmasuggest analyzes a realistic numerical kernel file and prints the
// suggested OpenMP pragma for every loop, illustrating the suggestion
// workflow of the paper's section 6.4 (the model only suggests; developers
// decide).
package main

import (
	"context"
	"fmt"
	"log"

	"graph2par"
)

// A small stencil/reduction mix resembling the workloads in the paper's
// motivation (PolyBench-style kernels).
const kernelFile = `
#include <math.h>

int main() {
    double u[258];
    double unew[258];
    double diff[256];
    double err = 0;
    double norm = 0;
    int it, i;

    for (i = 0; i < 258; i++) u[i] = (i % 17) * 0.25;

    /* Jacobi smoothing sweep: independent writes, parallel. */
    for (i = 1; i < 257; i++) {
        unew[i] = (u[i-1] + u[i+1]) * 0.5;
    }

    /* error reduction with a math call: parallel reduction. */
    for (i = 1; i < 257; i++) {
        err = err + fabs(unew[i] - u[i]);
    }

    /* prefix-style update: NOT parallel. */
    for (i = 1; i < 256; i++) {
        diff[i] = diff[i-1] + unew[i];
    }

    /* norm accumulation: parallel reduction. */
    for (i = 0; i < 256; i++) {
        norm += diff[i] * diff[i];
    }

    it = (int)(err + norm);
    return it;
}
`

func main() {
	engine, err := graph2par.NewEngine(graph2par.EngineConfig{
		TrainScale: 0.015,
		Epochs:     4,
		Seed:       11,
	})
	if err != nil {
		log.Fatal(err)
	}
	reports, err := engine.AnalyzeSourceContext(context.Background(), kernelFile)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n%d loops analyzed\n\n", len(reports))
	for _, r := range reports {
		fmt.Printf("line %3d: ", r.Line)
		if r.Parallel {
			if r.Suggestion != "" {
				fmt.Printf("parallel (%.0f%%) — %s\n", 100*r.Confidence, r.Suggestion)
			} else {
				fmt.Printf("parallel (%.0f%%)\n", 100*r.Confidence)
			}
		} else {
			fmt.Printf("keep serial (%.0f%%)\n", 100*r.Confidence)
		}
	}
	fmt.Println("\nAs in the paper, suggestions are advisory: the false-positive")
	fmt.Println("risk is handled by keeping the developer in the loop (section 6.4).")
}
