package main

import (
	"reflect"
	"testing"
)

func TestGenMixDeterministic(t *testing.T) {
	a := genMix(7, 100, 3, 4)
	if b := genMix(7, 100, 3, 4); !reflect.DeepEqual(a, b) {
		t.Fatal("genMix with the same seed returned different mixes")
	}
	if c := genMix(8, 100, 3, 4); reflect.DeepEqual(a, c) {
		t.Fatal("genMix with different seeds returned the same mix")
	}
}

func TestGenMixBlockComposition(t *testing.T) {
	want := [numClasses]int{classGet: 16, classSection: 8, classPut: 4, classRun: 6, classTune: 2, classBoot: 4}
	for b, block := range genMix(1, 200, 3, 4) {
		if len(block) != blockRounds {
			t.Fatalf("block %d: %d rounds, want %d", b, len(block), blockRounds)
		}
		var count [numClasses]int
		for _, rd := range block {
			if rd.pair && rd.op[0] != rd.op[1] {
				t.Fatalf("pair round with different requests: %+v", rd)
			}
			if rd.pair != (rd.op[0].class == classRun) || rd.pair != (rd.op[1].class == classRun) {
				t.Fatalf("warm runs must come as pairs and pairs must be warm runs: %+v", rd)
			}
			for _, op := range rd.op {
				count[op.class]++
				if op.model < 0 || op.model >= 3 || op.probe < 0 || op.probe >= 4 {
					t.Fatalf("op out of range: %+v", op)
				}
			}
		}
		if count != want {
			t.Fatalf("block %d: requests per class %v, want %v (40/20/10/15/5/10%% of 40)", b, count, want)
		}
	}
}
