// Sweep: the paper's sensitivity studies as a library session — Fig. 11's
// functional-unit sweep (performance is insensitive to the number of PIM
// FUs per vault) and Fig. 14's graph-size sweep (cache bypassing loses
// its edge when the graph fits in the LLC, but the speedup over baseline
// persists because atomic overhead is size-insensitive).
package main

import (
	"fmt"

	"graphpim"
)

func main() {
	env := graphpim.QuickEnv()
	defer env.Close()
	env.Vertices = 4096
	env.SweepSizes = []int{512, 2048, 4096}

	fmt.Println("--- Fig. 11: PIM functional units per vault ---")
	tb, err := graphpim.RunExperiment("fig11-fu-sweep", env)
	if err != nil {
		panic(err)
	}
	fmt.Println(tb.String())

	fmt.Println("--- Fig. 14: graph-size sensitivity ---")
	tb, err = graphpim.RunExperiment("fig14-size-sweep", env)
	if err != nil {
		panic(err)
	}
	fmt.Println(tb.String())
}
