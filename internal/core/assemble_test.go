package core

import (
	"strings"
	"testing"
)

// TestAssembleValidatesPartition: Assemble accepts specs that partition the
// profile exactly and names the fault otherwise.
func TestAssembleValidatesPartition(t *testing.T) {
	rows := []InvocationProfile{
		{Kernel: "a", Index: 10, InstructionCount: 100, CTASize: 128},
		{Kernel: "a", Index: 11, InstructionCount: 300, CTASize: 128},
		{Kernel: "b", Index: 20, InstructionCount: 600, CTASize: 256},
	}
	ok := []StratumSpec{
		{Kernel: "a", Tier: Tier1, Members: []int{11, 10}, Representative: 10},
		{Kernel: "b", Tier: Tier1, Members: []int{20}, Representative: 20},
	}
	res, err := Assemble(rows, ok, 0.4)
	if err != nil {
		t.Fatalf("valid partition: %v", err)
	}
	if got := res.Strata[0].Invocations; len(got) != 2 || got[0] != 10 || got[1] != 11 {
		t.Fatalf("stratum a invocations %v, want [10 11]", got)
	}
	if res.Strata[0].InstructionSum != 400 || res.TotalInstructions != 1000 || res.Strata[1].Weight != 0.6 {
		t.Fatalf("sums %g/%g, weight %g", res.Strata[0].InstructionSum, res.TotalInstructions, res.Strata[1].Weight)
	}
	for _, tc := range []struct {
		name  string
		specs []StratumSpec
		want  string
	}{
		{"duplicate", []StratumSpec{
			{Kernel: "a", Tier: Tier1, Members: []int{10, 11}, Representative: 10},
			{Kernel: "b", Tier: Tier1, Members: []int{20, 11}, Representative: 20},
		}, "invocation 11 assigned to strata 0 and 1"},
		{"uncovered", []StratumSpec{
			{Kernel: "a", Tier: Tier1, Members: []int{10, 11}, Representative: 10},
		}, "strata cover 2 of 3 invocations"},
		{"unknown", []StratumSpec{
			{Kernel: "a", Tier: Tier1, Members: []int{10, 11, 12}, Representative: 10},
		}, "references unknown invocation 12"},
		{"foreign representative", []StratumSpec{
			{Kernel: "a", Tier: Tier1, Members: []int{10, 11}, Representative: 20},
			{Kernel: "b", Tier: Tier1, Members: []int{20}, Representative: 20},
		}, "representative 20 is not a member"},
	} {
		if _, err := Assemble(rows, tc.specs, 0.4); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
	}
}
