// Command lbgen synthesises a random strictly periodic task system with
// the paper's structural assumptions (§4: few harmonic periods, harmonic
// dependences) and writes it as JSON to stdout, for consumption by
// lbsim.
//
// Usage:
//
//	lbgen -tasks 200 -seed 7 -util 3.0 -periods 10,20,40 > system.json
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"

	"repro/internal/gen"
	"repro/internal/model"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("lbgen: ")

	var (
		tasks   = flag.Int("tasks", 50, "number of tasks")
		seed    = flag.Int64("seed", 1, "random seed")
		util    = flag.Float64("util", 2.0, "target total utilisation ΣEi/Ti")
		periods = flag.String("periods", "", "comma-separated harmonic period ladder (default 10,20,40,80)")
		edge    = flag.Float64("edge", 0.3, "dependence probability between harmonic task pairs")
		indeg   = flag.Int("indeg", 3, "maximum in-degree per task")
		memMin  = flag.Int64("mem-min", 1, "minimum per-task memory")
		memMax  = flag.Int64("mem-max", 8, "maximum per-task memory")
	)
	flag.Parse()

	cfg := gen.Config{
		Seed:        *seed,
		Tasks:       *tasks,
		Utilization: *util,
		EdgeProb:    *edge,
		MaxInDegree: *indeg,
		MemMin:      model.Mem(*memMin),
		MemMax:      model.Mem(*memMax),
	}
	if *periods != "" {
		for _, f := range strings.Split(*periods, ",") {
			v, err := strconv.ParseInt(strings.TrimSpace(f), 10, 64)
			if err != nil {
				log.Fatalf("bad period %q: %v", f, err)
			}
			cfg.Periods = append(cfg.Periods, model.Time(v))
		}
	}

	ts, err := gen.Generate(cfg)
	if err != nil {
		log.Fatal(err)
	}
	if err := model.WriteJSON(os.Stdout, ts); err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "lbgen: %d tasks, %d dependences, hyper-period %d, utilisation %.2f\n",
		ts.Len(), ts.NumDependences(), ts.HyperPeriod(), ts.Utilization())
}
