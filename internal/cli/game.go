package cli

import (
	"context"
	"flag"
	"fmt"
	"io"
	"sort"

	"eagletree/internal/experiment"
)

// cmdGame is the demonstration's closing game (Figure 3): guess the
// combination of SSD scheduling policies — read/write preference and
// internal-IO ordering — that maximizes throughput while balancing mean
// latency and latency variability between IO types. The E12 document is the
// design space; the guess is ranked against every combination in it.
func cmdGame(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("eagletree game", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		prefer   = fs.String("prefer", "none", "your guess: none | reads | writes")
		internal = fs.String("internal", "equal", "your guess: equal | last | first")
		scale    = fs.String("scale", "small", "workload scale: small | full")
		reveal   = fs.Bool("reveal", false, "print the whole scored design space")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sc, err := parseScale(*scale)
	if err != nil {
		return fail(stderr, err)
	}
	doc, ok := experiment.SuiteSpec("e12", sc)
	if !ok {
		return fail(stderr, fmt.Errorf("the suite has no E12 document"))
	}
	def, err := experiment.FromSpec(doc)
	if err != nil {
		return fail(stderr, err)
	}
	guess := fmt.Sprintf("prefer=%s,internal=%s", *prefer, *internal)

	fmt.Fprintln(stdout, "Running the scheduling design space (this simulates the full workload once per combination)...")
	res, err := experiment.New(experiment.Options{}).Run(context.Background(), def)
	if err != nil {
		return fail(stderr, err)
	}

	w := experiment.DefaultGameWeights()
	type scored struct {
		label string
		score float64
	}
	var ranked []scored
	for _, r := range res.Rows {
		ranked = append(ranked, scored{r.Label, w.Score(r.Report)})
	}
	sort.Slice(ranked, func(i, j int) bool { return ranked[i].score > ranked[j].score })

	guessRank := -1
	for i, s := range ranked {
		if s.label == guess {
			guessRank = i
		}
	}
	if guessRank < 0 {
		return fail(stderr, fmt.Errorf("%q is not in the design space", guess))
	}

	if *reveal {
		fmt.Fprintln(stdout, "\nrank  score      combination")
		for i, s := range ranked {
			marker := ""
			if s.label == guess {
				marker = "   <- your guess"
			}
			fmt.Fprintf(stdout, "%4d  %9.1f  %s%s\n", i+1, s.score, s.label, marker)
		}
	}

	fmt.Fprintf(stdout, "\nyour guess:  %s (score %.1f)\n", guess, ranked[guessRank].score)
	fmt.Fprintf(stdout, "optimum:     %s (score %.1f)\n", ranked[0].label, ranked[0].score)
	switch {
	case guessRank == 0:
		fmt.Fprintln(stdout, "\nPerfect — you win the EagleTree T-shirt.")
	case guessRank <= 2:
		fmt.Fprintf(stdout, "\nClose: rank %d of %d. The design space is less intuitive than it looks.\n", guessRank+1, len(ranked))
	default:
		fmt.Fprintf(stdout, "\nRank %d of %d. Interesting solutions are sometimes counter-intuitive — try -reveal.\n", guessRank+1, len(ranked))
	}
	return 0
}
