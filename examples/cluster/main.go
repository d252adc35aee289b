// Command cluster is the chaos and end-to-end suite for the sharded
// serving tier. It runs a catalog of cases (cases.go), each of which
// boots its own mini-cluster of real hpserve/hpgate subprocesses, injects
// one failure mode — SIGKILL mid-stream, a torn WAL frame, induced
// saturation, a flapping backend — and asserts the recovery contract plus
// the /metrics families that make it observable. Any failed check exits
// non-zero, which is what the CI jobs key off.
//
// Usage (binaries are built by `make bins`):
//
//	go run ./examples/cluster -list
//	go run ./examples/cluster                 # the full catalog (make e2e)
//	go run ./examples/cluster -smoke          # CI chaos gate (make chaos)
//	go run ./examples/cluster -run R004,R010  # specific cases
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"
)

var (
	hpserveBin = flag.String("hpserve", "bin/hpserve", "path to the hpserve binary")
	hpgateBin  = flag.String("hpgate", "bin/hpgate", "path to the hpgate binary")
	basePort   = flag.Int("base-port", 18080, "first listen port; each case's mini-cluster takes the next few")
	timeout    = flag.Duration("timeout", 5*time.Minute, "overall deadline")
	listOnly   = flag.Bool("list", false, "print the case catalog and exit")
	runIDs     = flag.String("run", "", "comma-separated case IDs to run (default: all)")
	smokeOnly  = flag.Bool("smoke", false, "run only the smoke-tagged cases")
)

func main() {
	flag.Parse()
	log.SetFlags(0)
	log.SetPrefix("cluster: ")

	if *listOnly {
		fmt.Print(catalogListing())
		return
	}

	selected := catalog
	if *runIDs != "" {
		want := map[string]bool{}
		for _, id := range strings.Split(*runIDs, ",") {
			want[strings.TrimSpace(id)] = true
		}
		selected = nil
		for _, cc := range catalog {
			if want[cc.ID] {
				selected = append(selected, cc)
				delete(want, cc.ID)
			}
		}
		if len(want) != 0 {
			log.Fatalf("unknown case IDs %v; -list shows the catalog", keys(want))
		}
	}
	if *smokeOnly {
		var smoke []chaosCase
		for _, cc := range selected {
			if cc.Smoke {
				smoke = append(smoke, cc)
			}
		}
		selected = smoke
	}
	if len(selected) == 0 {
		log.Fatal("no cases selected")
	}

	portCounter = *basePort - 1 // allocPort pre-increments
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	for _, cc := range selected {
		t := &T{Ctx: ctx, ID: cc.ID}
		t.Logf("=== %s", cc.Title)
		start := time.Now()
		if !runCase(cc, t) {
			log.Printf("[%s] cleaned up; stopping the suite", cc.ID)
			os.Exit(1)
		}
		t.Logf("--- ok (%s)", time.Since(start).Round(time.Millisecond))
	}
	log.Printf("all %d cases passed", len(selected))
	os.Exit(0)
}

func keys(m map[string]bool) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}
