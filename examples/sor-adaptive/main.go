// Command sor-adaptive demonstrates §IV.B of the paper: run-time
// adaptation of the parallelism structure. A SOR run starts on a small
// team/world and, at a safe point mid-run, expands to use newly available
// resources — without restarting and without changing the result. Both
// directions are shown (expansion and contraction), for threads and for
// replicas, driven by pluggable adaptation policies.
//
// With -mode=task the demo instead exercises the work-stealing Task
// executor end to end (overdecomposition, stealing, the cross-rank
// balancer, in-place thread adaptation) and verifies the result never
// moves — the CI smoke that catches scheduler regressions outside unit
// tests.
package main

import (
	"flag"
	"fmt"
	"log"

	"ppar/internal/jgf"
	"ppar/pp"
)

func main() {
	modeFlag := flag.String("mode", "", `"" runs the adaptation scenarios; "task" runs the work-stealing executor smoke`)
	flag.Parse()
	if *modeFlag == "task" {
		taskSmoke()
		return
	}
	if *modeFlag != "" {
		log.Fatalf("unknown -mode %q (want empty or task)", *modeFlag)
	}

	const n, iters = 200, 40
	reference := jgf.SORReference(n, iters)
	fmt.Printf("reference Gtotal: %.12f\n\n", reference)

	scenarios := []struct {
		label string
		mode  pp.Mode
		opts  []pp.Option
	}{
		{
			"threads 2 -> 8 at safe point 20 (expansion)",
			pp.Shared,
			[]pp.Option{pp.WithThreads(2),
				pp.WithAdaptPolicy(pp.AdaptAt(20, pp.AdaptTarget{Threads: 8}))},
		},
		{
			"threads 8 -> 2 at safe point 20 (contraction)",
			pp.Shared,
			[]pp.Option{pp.WithThreads(8),
				pp.WithAdaptPolicy(pp.AdaptAt(20, pp.AdaptTarget{Threads: 2}))},
		},
		{
			"replicas 2 -> 6 at safe point 20 (expansion)",
			pp.Distributed,
			[]pp.Option{pp.WithProcs(2),
				pp.WithAdaptPolicy(pp.AdaptAt(20, pp.AdaptTarget{Procs: 6}))},
		},
		{
			"replicas 6 -> 2 at safe point 20 (contraction)",
			pp.Distributed,
			[]pp.Option{pp.WithProcs(6),
				pp.WithAdaptPolicy(pp.AdaptAt(20, pp.AdaptTarget{Procs: 2}))},
		},
		{
			"threads 2 -> 6 -> 4 (Schedule policy)",
			pp.Shared,
			[]pp.Option{pp.WithThreads(2),
				pp.WithAdaptPolicy(pp.Schedule(
					pp.AdaptStep{At: 10, Target: pp.AdaptTarget{Threads: 6}},
					pp.AdaptStep{At: 30, Target: pp.AdaptTarget{Threads: 4}},
				))},
		},
	}
	for _, sc := range scenarios {
		res := &jgf.SORResult{}
		opts := append([]pp.Option{
			pp.WithName("sor-adaptive"),
			pp.WithMode(sc.mode),
			pp.WithModules(jgf.SORModules(sc.mode)...),
		}, sc.opts...)
		eng, err := pp.New(func() pp.App { return jgf.NewSOR(n, iters, res) }, opts...)
		if err != nil {
			log.Fatalf("%s: %v", sc.label, err)
		}
		if err := eng.Run(); err != nil {
			log.Fatalf("%s: %v", sc.label, err)
		}
		rep := eng.Report()
		status := "identical result"
		if res.Gtotal != reference {
			status = "RESULT DIVERGED"
		}
		fmt.Printf("%-48s adapted=%v  %s\n", sc.label, rep.Adapted, status)
		if res.Gtotal != reference {
			log.Fatal("adaptation changed the computation")
		}
	}

	// The asynchronous path: a resource manager grants more threads
	// through Engine.RequestAdapt; the coordinator applies the change at
	// the next safe point it schedules.
	res := &jgf.SORResult{}
	eng, err := pp.New(func() pp.App { return jgf.NewSOR(n, iters, res) },
		pp.WithName("sor-adaptive"),
		pp.WithMode(pp.Shared), pp.WithThreads(2),
		pp.WithModules(jgf.SORModules(pp.Shared)...))
	if err != nil {
		log.Fatal(err)
	}
	eng.RequestAdapt(pp.AdaptTarget{Threads: 6})
	if err := eng.Run(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-48s adapted=%v  identical result\n",
		"RequestAdapt: threads 2 -> 6 (asynchronous)", eng.Report().Adapted)
	if !eng.Report().Adapted {
		log.Fatal("the asynchronous request was never applied")
	}
	if res.Gtotal != reference {
		log.Fatal("asynchronous adaptation changed the computation")
	}
	fmt.Println("\nall adaptations preserved the computation")
}

// taskSmoke drives the Task executor through the shapes unit tests cover in
// isolation, composed end to end: multiple overdecomposition factors, a
// multi-rank world with the cross-rank balancer armed, and an in-place
// thread adaptation mid-run. Any divergence from the sequential reference
// is fatal.
func taskSmoke() {
	const n, iters = 200, 40
	reference := jgf.SORReference(n, iters)
	fmt.Printf("reference Gtotal: %.12f\n\n", reference)

	scenarios := []struct {
		label string
		opts  []pp.Option
	}{
		{"task 4 workers, k=8", []pp.Option{
			pp.WithThreads(4), pp.WithOverdecompose(8)}},
		{"task 4 workers, k=1 (degenerate static)", []pp.Option{
			pp.WithThreads(4), pp.WithOverdecompose(1)}},
		{"task 2x2 world, k=8 (cross-rank balancer armed)", []pp.Option{
			pp.WithProcs(2), pp.WithThreads(2), pp.WithOverdecompose(8)}},
		{"task threads 2 -> 4 at safe point 20", []pp.Option{
			pp.WithThreads(2), pp.WithOverdecompose(8),
			pp.WithAdaptPolicy(pp.AdaptAt(20, pp.AdaptTarget{Threads: 4}))}},
	}
	for _, sc := range scenarios {
		res := &jgf.SORResult{}
		opts := append([]pp.Option{
			pp.WithName("sor-adaptive"),
			pp.WithMode(pp.Task),
			pp.WithModules(jgf.SORModules(pp.Task)...),
		}, sc.opts...)
		eng, err := pp.New(func() pp.App { return jgf.NewSOR(n, iters, res) }, opts...)
		if err != nil {
			log.Fatalf("%s: %v", sc.label, err)
		}
		if err := eng.Run(); err != nil {
			log.Fatalf("%s: %v", sc.label, err)
		}
		rep := eng.Report()
		fmt.Printf("%-48s chunks=%-5d steals=%-5d rebalances=%d  identical=%v\n",
			sc.label, rep.TaskChunks, rep.Steals, rep.Rebalances, res.Gtotal == reference)
		if res.Gtotal != reference {
			log.Fatalf("%s: the Task schedule changed the computation", sc.label)
		}
	}
	fmt.Println("\nwork stealing preserved the computation")
}
