package engine

import (
	"bytes"
	"os"
	"reflect"
	"strings"
	"testing"

	"mobicache/internal/faults"
	"mobicache/internal/workload"
)

func manifestConfig() Config {
	c := Default()
	c.SimTime = 4000
	c.MeanDisc = 400
	c.Workload = workload.HotCold(c.DBSize)
	c.Seed = 7
	c.Faults = faults.Config{
		DownLoss:  faults.GEParams{PGoodBad: 0.05, PBadGood: 0.2, LossBad: 0.25},
		CrashMTBF: 1500,
		CrashMTTR: 120,
		Retry:     faults.RetryPolicy{Timeout: 240, Backoff: 2, MaxDelay: 1920, Jitter: 0.2, MaxAttempts: 6},
	}
	return c
}

// TestManifestReplay is the manifest acceptance loop: record a run, feed
// the manifest's config back through the engine, and require the exact
// recorded digest.
func TestManifestReplay(t *testing.T) {
	r, err := Run(manifestConfig())
	if err != nil {
		t.Fatal(err)
	}
	m := NewManifest(r)
	if m.Scheme != "aaw" || m.Workload != "HOTCOLD" || m.Seed != 7 {
		t.Fatalf("manifest identity fields wrong: %+v", m)
	}
	if m.GoVersion == "" || m.SchemaVersion != ManifestSchemaVersion {
		t.Fatalf("manifest build fields wrong: version %q schema %d", m.GoVersion, m.SchemaVersion)
	}
	if m.Events != r.Events || m.PeakEventQueue != r.PeakEventQueue || m.PeakEventQueue <= 0 {
		t.Fatalf("manifest profile wrong: events %d/%d peak %d/%d",
			m.Events, r.Events, m.PeakEventQueue, r.PeakEventQueue)
	}

	c2, err := m.EngineConfig()
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(c2)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.VerifyReplay(r2); err != nil {
		t.Fatalf("replay did not reproduce the run: %v", err)
	}
	// A different seed must be caught.
	c2.Seed = 8
	r3, err := Run(c2)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.VerifyReplay(r3); err == nil {
		t.Fatal("VerifyReplay accepted a divergent run")
	}
}

// TestManifestJSONRoundTrip checks Write/Read preserve every field.
func TestManifestJSONRoundTrip(t *testing.T) {
	r, err := Run(manifestConfig())
	if err != nil {
		t.Fatal(err)
	}
	m := NewManifest(r)
	m.Stamp(1.25)
	if m.WallClockSec != 1.25 || m.EventsPerSec != float64(m.Events)/1.25 {
		t.Fatalf("Stamp: wall %v events/s %v", m.WallClockSec, m.EventsPerSec)
	}

	var buf bytes.Buffer
	if err := m.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadManifest(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, got) {
		t.Fatalf("round trip diverged:\nwrote %+v\nread  %+v", m, got)
	}

	// Every exported Manifest field must carry a json tag so nothing can
	// silently vanish from the file.
	mt := reflect.TypeOf(Manifest{})
	for i := 0; i < mt.NumField(); i++ {
		f := mt.Field(i)
		if tag := f.Tag.Get("json"); tag == "" || tag == "-" {
			t.Fatalf("Manifest field %s has no json tag", f.Name)
		}
	}
}

func TestManifestErrors(t *testing.T) {
	r, err := Run(manifestConfig())
	if err != nil {
		t.Fatal(err)
	}
	m := NewManifest(r)
	m.SchemaVersion = 99
	if _, err := m.EngineConfig(); err == nil || !strings.Contains(err.Error(), "schema") {
		t.Fatalf("stale schema accepted: %v", err)
	}
	m.SchemaVersion = ManifestSchemaVersion
	m.Workload = "bogus"
	if _, err := m.EngineConfig(); err == nil {
		t.Fatal("unknown workload accepted")
	}
	if _, err := ReadManifest(strings.NewReader("{not json")); err == nil {
		t.Fatal("bad JSON accepted")
	}
}

// TestManifestV6Replays: schema-v6 manifests carried an "aggregate" flag
// naming which of two client implementations ran. Both files were
// recorded by the simulator before the flag was dropped, one per value;
// each must still decode and replay to its recorded digest on the one
// remaining implementation.
func TestManifestV6Replays(t *testing.T) {
	for _, tc := range []struct {
		file string
		flag string
	}{
		{"testdata/manifest_v6_proc.json", `"aggregate": false`},
		{"testdata/manifest_v6_aggregate.json", `"aggregate": true`},
	} {
		t.Run(tc.file, func(t *testing.T) {
			raw, err := os.ReadFile(tc.file)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Contains(raw, []byte(tc.flag)) {
				t.Fatalf("fixture lacks %s", tc.flag)
			}
			m, err := ReadManifest(bytes.NewReader(raw))
			if err != nil {
				t.Fatal(err)
			}
			if m.SchemaVersion != 6 {
				t.Fatalf("schema %d, want 6", m.SchemaVersion)
			}
			c, err := m.EngineConfig()
			if err != nil {
				t.Fatal(err)
			}
			if err := m.VerifyReplay(mustRun(t, c)); err != nil {
				t.Fatal(err)
			}
		})
	}
}
