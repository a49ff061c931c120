// Command rsse-bench regenerates the paper's evaluation (Section 8 and
// Appendix A): every table and figure, printed as aligned text series.
//
// Usage:
//
//	rsse-bench [-scale small|medium|paper] [experiment...]
//
// Experiments: fig5, table2, fig6, fig7, fig8, table1, ablation, updates,
// all (default all). The "paper" scale mirrors the paper's dataset sizes
// and can take hours; "small" (default) completes in minutes.
// -cpuprofile and -memprofile write pprof profiles of whatever
// experiments run.
//
// It reproduces the paper and nothing else: this implementation's own
// performance numbers come from benchmark/ and `go test -bench`.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"time"

	"rsse/internal/benchutil"
	"rsse/internal/obs"
)

func main() {
	scaleName := flag.String("scale", "small", "experiment scale: small|medium|paper")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile at the end of the run to this file")
	version := flag.Bool("version", false, "print version and exit")
	flag.Parse()
	if *version {
		fmt.Println("rsse-bench", obs.Info())
		return
	}
	scale, err := benchutil.ScaleByName(*scaleName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	profiles, err := obs.StartProfiles(*cpuProfile, *memProfile)
	exitOn(err)
	defer profiles.Stop()

	wanted := flag.Args()
	if len(wanted) == 0 {
		wanted = []string{"all"}
	}
	known := []string{"fig5", "table2", "fig6", "fig7", "fig8", "table1",
		"ablation", "updates", "all"}
	want := map[string]bool{}
	for _, w := range wanted {
		if !slices.Contains(known, w) {
			fmt.Fprintf(os.Stderr, "rsse-bench: unknown experiment %q\navailable experiments: %s\n",
				w, strings.Join(known, ", "))
			os.Exit(2)
		}
		want[w] = true
	}
	runAll := want["all"]
	out := os.Stdout

	fmt.Fprintf(out, "rsse-bench — scale %q\n", scale.Name)
	start := time.Now()

	if runAll || want["fig5"] {
		sizeExp, timeExp, err := benchutil.Fig5(scale)
		exitOn(err)
		sizeExp.Print(out)
		timeExp.Print(out)
	}
	if runAll || want["table2"] {
		t2, err := benchutil.Table2(scale)
		exitOn(err)
		t2.Print(out)
	}
	if runAll || want["fig6"] {
		a, b, err := benchutil.Fig6(scale)
		exitOn(err)
		a.Print(out)
		b.Print(out)
	}
	if runAll || want["fig7"] {
		a, b, err := benchutil.Fig7(scale)
		exitOn(err)
		a.Print(out)
		b.Print(out)
	}
	if runAll || want["fig8"] {
		sizeExp, timeExp, err := benchutil.Fig8(scale)
		exitOn(err)
		sizeExp.Print(out)
		timeExp.Print(out)
	}
	if runAll || want["table1"] {
		rows, err := benchutil.Table1(scale)
		exitOn(err)
		benchutil.PrintTable1(rows, out)
	}
	if runAll || want["ablation"] {
		exp, err := benchutil.AblationSRC(scale)
		exitOn(err)
		exp.Print(out)
	}
	if runAll || want["updates"] {
		active, summaries, err := benchutil.Updates(scale)
		exitOn(err)
		active.Print(out)
		fmt.Fprintf(out, "\nSection 7 — end-of-stream summary\n")
		for _, s := range summaries {
			fmt.Fprintf(out, "  s=%d: %d active indexes, flush+consolidate %.2fs, full-range query %.1fms (%d tokens), total %.1fMB\n",
				s.Step, s.ActiveIndexes, s.FlushTotal.Seconds(),
				float64(s.QueryTime.Microseconds())/1000, s.QueryTokens,
				float64(s.TotalSize)/(1<<20))
		}
	}
	fmt.Fprintf(out, "\ncompleted in %.1fs\n", time.Since(start).Seconds())
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "rsse-bench:", err)
		os.Exit(1)
	}
}
