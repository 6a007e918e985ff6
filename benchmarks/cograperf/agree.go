package main

// The self-check: does the benchmark agree with itself? Two sets of N
// full runs of the same binary, interleaved (A1 B1 A2 B2 ...) so that
// drift of the box hits both alike, run i of either set on seed i. For
// every workload and end-to-end metric it prints both medians, both
// quartile ranges as a share of the median, and how much worse the
// second median is than the first, next to the metric's bound. A
// metric whose two sets differ by more than its bound, or whose runs
// spread wider than its bound, cannot carry a claim; the check fails.

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strings"
)

// quartiles returns the first and third quartile of v the way Python's
// statistics.quantiles(v, n=4) does (the "exclusive" method), which is
// what the driver of this benchmark applies.
func quartiles(v []float64) (q1, q3 float64) {
	s := sortedCopy(v)
	at := func(i int) float64 {
		m := len(s) + 1
		j := min(max(i*m/4, 1), len(s)-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

func median(v []float64) float64 {
	s := sortedCopy(v)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// selfCheck runs the check over every workload (or only the named one)
// and returns the process exit code.
func selfCheck(n int, seconds float64, only string) int {
	if n < 2 {
		fmt.Fprintln(os.Stderr, "cograperf: -agree needs at least 2 runs per set")
		return 2
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "cograperf:", err)
		return 1
	}
	// values[workload][metric][set] are the n readings.
	values := map[string]map[string][2][]float64{}
	for i := 0; i < n; i++ {
		for set := 0; set < 2; set++ {
			for _, wl := range workloads {
				if only != "" && wl.name != only {
					continue
				}
				out, err := exec.Command(exe, "-workload", wl.name, "-seed", fmt.Sprint(i+1),
					"-seconds", fmt.Sprint(seconds), "-trace", "0").Output()
				if err != nil {
					fmt.Fprintf(os.Stderr, "cograperf: %s seed %d: %v\n%s", wl.name, i+1, err, out)
					return 1
				}
				lines := strings.Split(strings.TrimSpace(string(out)), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil || !res.Correct {
					fmt.Fprintf(os.Stderr, "cograperf: %s seed %d: bad result line (%v): %s\n", wl.name, i+1, err, lines[len(lines)-1])
					return 1
				}
				if values[wl.name] == nil {
					values[wl.name] = map[string][2][]float64{}
				}
				for name, m := range res.Metrics {
					sets := values[wl.name][name]
					sets[set] = append(sets[set], m.Value)
					values[wl.name][name] = sets
				}
				fmt.Fprintf(os.Stderr, "set %c run %d/%d %s done\n", 'A'+set, i+1, n, wl.name)
			}
		}
	}

	fmt.Printf("self-check: 2 interleaved sets of %d runs, seeds 1..%d, %.0f s each, commit %s\n", n, n, seconds, commit())
	fmt.Printf("%-19s %-22s %13s %13s %8s %8s %8s %7s  %s\n",
		"workload", "metric", "median A", "median B", "iqr A", "iqr B", "B worse", "bound", "verdict")
	failed := false
	for _, wl := range workloads {
		for _, def := range endToEndMetrics {
			sets, ok := values[wl.name][def.name]
			if !ok {
				continue
			}
			mA, mB := median(sets[0]), median(sets[1])
			spread := func(v []float64) float64 {
				q1, q3 := quartiles(v)
				return (q3 - q1) / median(v)
			}
			sA, sB := spread(sets[0]), spread(sets[1])
			worse := (mB - mA) / mA
			if def.better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			switch wide := max(sA, sB); {
			case worse > def.bound:
				verdict, failed = "FAIL: sets disagree", true
			case wide > def.bound && def.name != "setup_s":
				verdict, failed = "FAIL: spread over bound", true
			case wide > def.bound/2:
				verdict = "ok (spread over half the bound)"
			}
			fmt.Printf("%-19s %-22s %13.6g %13.6g %7.2f%% %7.2f%% %+7.2f%% %6.1f%%  %s\n",
				wl.name, def.name, mA, mB, 100*sA, 100*sB, 100*worse, 100*def.bound, verdict)
		}
	}
	if failed {
		return 1
	}
	return 0
}
