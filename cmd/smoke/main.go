// Command smoke runs the end-to-end smoke scenarios: each boots the
// real daemons under test as child processes, drives them, and fails
// non-zero on the first broken invariant. Whether a scenario passes or
// fails, its children are killed and its scratch directory removed.
//
// Usage:
//
//	smoke [-bin bin] SCENARIO
//
// -bin is the directory holding the binaries under test (`make bins`
// builds them all there). The scenarios, each behind a `make` target
// in `make check`:
//
//	obs          capd's telemetry surface          (make obs-smoke)
//	decision     consentd under mixed traffic      (make decision-smoke)
//	fleet        capd + fleetd + crawl workers     (make fleet-smoke)
//	replication  three capds behind capring        (make replication-smoke)
//	pack         capd's pack engine under SIGKILL  (make pack-smoke)
//	cluster-obs  obsd over the whole fleet         (make cluster-obs-smoke)
//	analytics    analyzed vs batch analyze         (make analytics-smoke)
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
)

var scenarios = map[string]func(){
	"obs":         obsScenario,
	"decision":    decisionScenario,
	"fleet":       fleetScenario,
	"replication": replicationScenario,
	"pack":        packScenario,
	"cluster-obs": clusterObsScenario,
	"analytics":   analyticsScenario,
}

func main() {
	binFlag := flag.String("bin", "bin", "directory holding the binaries under test")
	flag.Usage = func() {
		names := make([]string, 0, len(scenarios))
		for name := range scenarios {
			names = append(names, name)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "usage: smoke [-bin DIR] SCENARIO\nscenarios: %s\n", strings.Join(names, ", "))
		flag.PrintDefaults()
	}
	flag.Parse()
	scenario, ok := scenarios[flag.Arg(0)]
	if flag.NArg() != 1 || !ok {
		flag.Usage()
		os.Exit(2)
	}
	if err := run(flag.Arg(0), *binFlag, scenario); err != nil {
		fmt.Fprintf(os.Stderr, "smoke %s: %v\n", flag.Arg(0), err)
		os.Exit(1)
	}
}
