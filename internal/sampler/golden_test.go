package sampler_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"github.com/gpusampling/sieve/internal/core"
	"github.com/gpusampling/sieve/internal/pks"
	"github.com/gpusampling/sieve/internal/profiler"
	"github.com/gpusampling/sieve/internal/sampler"
	"github.com/gpusampling/sieve/internal/sampler/rss"
	"github.com/gpusampling/sieve/internal/sampler/twophase"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/plan_sha256.json from the current code")

const goldenPath = "testdata/plan_sha256.json"

// csvProfile loads the repository's checked-in lmc profile fixture.
func csvProfile(t *testing.T) *sampler.Profile {
	t.Helper()
	f, err := os.Open(filepath.Join("..", "..", "testdata", "profile_lmc_scale0.01.csv"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	p, err := profiler.ReadCSV(f)
	if err != nil {
		t.Fatalf("ReadCSV: %v", err)
	}
	rows := make([]core.InvocationProfile, len(p.Records))
	for i, r := range p.Records {
		rows[i] = core.InvocationProfile{
			Kernel:           r.Kernel,
			Index:            r.Index,
			InstructionCount: r.Chars.InstructionCount,
			CTASize:          r.CTASize,
		}
	}
	return &sampler.Profile{Rows: rows}
}

// TestSeededPlanGolden pins the exact bytes of the seeded strategies' plans:
// the SHA-256 of each JSON-marshalled twophase and rss plan over three
// profiles and four seeds, and of each pks plan over the two profiles that
// carry feature vectors. Same-build determinism (TestSeedDeterminism)
// cannot catch a change to the random streams themselves; this can.
// Regenerate only for an intended plan change: go test ./internal/sampler
// -run TestSeededPlanGolden -update.
func TestSeededPlanGolden(t *testing.T) {
	profiles := []struct {
		name string
		load func(*testing.T) *sampler.Profile
	}{
		{"lmc.csv", csvProfile},
		{"bert@0.002", func(t *testing.T) *sampler.Profile { return testProfile(t, "bert", 0.002) }},
		{"gru@0.01", func(t *testing.T) *sampler.Profile { return testProfile(t, "gru", 0.01) }},
	}
	got := map[string]string{}
	for _, pr := range profiles {
		p := pr.load(t)
		for _, method := range []string{twophase.Method, rss.Method, "pks"} {
			if method == "pks" && p.Features == nil {
				continue
			}
			for _, seed := range []int64{1, 7, 42, -3} {
				opts := sampler.Options{Seed: seed, PKS: pks.Options{Seed: seed}}
				plan, err := sampler.Run(context.Background(), method, p, opts)
				if err != nil {
					t.Fatalf("%s %s seed %d: %v", pr.name, method, seed, err)
				}
				b, err := json.Marshal(plan)
				if err != nil {
					t.Fatalf("marshal: %v", err)
				}
				sum := sha256.Sum256(b)
				got[fmt.Sprintf("%s/%s/seed=%d", pr.name, method, seed)] = hex.EncodeToString(sum[:])
			}
		}
	}
	if *updateGolden {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	var want map[string]string
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("golden has %d plans, run produced %d", len(want), len(got))
	}
	for k, w := range want {
		if got[k] != w {
			t.Errorf("%s: plan sha256 %s, golden %s", k, got[k], w)
		}
	}
}
