package main

import "math/rand"

// reqClass is one kind of registry request of the mix.
type reqClass int

const (
	classGet     reqClass = iota // GET of a full report
	classSection                 // GET of one probe section
	classPut                     // PUT of a stored report's own bytes
	classRun                     // warm POST /v1/run, issued in identical pairs
	classTune                    // POST /v1/tune with a model objective
	classBoot                    // node boot through servet.RemoteCache
	numClasses
)

var classNames = [numClasses]string{"get", "section", "put", "run", "tune_req", "boot"}

// A block is the registry workload's operation: blockRounds rounds of
// the closed loop, 2 requests each. pairRounds of them are warm runs
// sent as simultaneous identical pairs; the other rounds carry one
// request per connection, soloCounts of each class. Every block has
// the same composition, 40% GET, 20% section, 10% PUT, 15% warm run,
// 5% tune and 10% boot, so block times are comparable across seeds.
const (
	blockRounds = 20
	pairRounds  = 3
)

var soloCounts = [numClasses]int{classGet: 16, classSection: 8, classPut: 4, classTune: 2, classBoot: 4}

// mixOp is one request: its class, the fleet model it addresses and,
// for a section, the probe.
type mixOp struct {
	class reqClass
	model int
	probe int
}

// round is one step of the closed loop: op[w] goes to connection w.
// In a pair round both ops are the same warm run, sent together.
type round struct {
	pair bool
	op   [2]mixOp
}

// genMix generates n blocks of the registry mix over models fleet
// models and probes probe sections: the order of each block's rounds
// and requests, and the model and probe of each request, are drawn
// from the seed. It is a pure function of its arguments.
func genMix(seed int64, n, models, probes int) [][]round {
	rng := rand.New(rand.NewSource(seed))
	mix := make([][]round, n)
	for b := range mix {
		var solo []mixOp
		for c, k := range soloCounts {
			for range k {
				solo = append(solo, mixOp{class: reqClass(c), model: rng.Intn(models), probe: rng.Intn(probes)})
			}
		}
		rng.Shuffle(len(solo), func(i, j int) { solo[i], solo[j] = solo[j], solo[i] })
		block := make([]round, blockRounds)
		for i := range pairRounds {
			op := mixOp{class: classRun, model: rng.Intn(models)}
			block[i] = round{pair: true, op: [2]mixOp{op, op}}
		}
		for i := pairRounds; i < blockRounds; i++ {
			block[i] = round{op: [2]mixOp{solo[0], solo[1]}}
			solo = solo[2:]
		}
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		mix[b] = block
	}
	return mix
}
