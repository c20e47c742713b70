package main

import (
	"errors"
	"strings"
	"testing"
)

const passingRun = `{"queries_answered": 90, "queries_timed_out": 6, "queries_shed": 1,
	"queries_in_flight": 3, "queries_issued": 100,
	"disconnections": 7, "storm_disconnects": 5, "solo_disconnects": 2,
	"client_crashes": 4, "restarts_warm": 2, "restarts_cold": 1, "crashed_at_end": 1,
	"hit_ratio": 0.25, "uplink_bits_per_query": 3.5, "events": 1234,
	"consistency_violations": 0, "reports_sent": {"TS": 3}}`

func TestGate(t *testing.T) {
	r, err := gate(nil, []byte(passingRun))
	if err != nil {
		t.Fatalf("passing run rejected: %v", err)
	}
	if r.QueriesAnswered != 90 || r.ReportsSent["TS"] != 3 {
		t.Fatalf("parsed %+v", r)
	}
	cases := []struct {
		name    string
		exitErr error
		out     string
		want    string
	}{
		{"exit status", errors.New("exit status 1"), passingRun, "simulator failed"},
		{"not json", nil, "scheme=aaw", "not JSON"},
		{"stale read", nil, strings.Replace(passingRun, `"consistency_violations": 0`, `"consistency_violations": 2`, 1), "consistency"},
		{"query identity", nil, strings.Replace(passingRun, `"queries_issued": 100`, `"queries_issued": 101`, 1), "queries issued"},
		{"disconnect identity", nil, strings.Replace(passingRun, `"disconnections": 7`, `"disconnections": 8`, 1), "disconnections"},
		{"crash identity", nil, strings.Replace(passingRun, `"crashed_at_end": 1`, `"crashed_at_end": 0`, 1), "client crashes"},
	}
	for _, c := range cases {
		if _, err := gate(c.exitErr, []byte(c.out)); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want an error mentioning %q", c.name, err, c.want)
		}
	}
}

func TestDigestsRepeat(t *testing.T) {
	r, err := gate(nil, []byte(passingRun))
	if err != nil {
		t.Fatal(err)
	}
	ds := digests{}
	d := digestOf(r)
	if err := ds.check("aaw@100", d); err != nil {
		t.Fatalf("first sight: %v", err)
	}
	if err := ds.check("aaw@100", d); err != nil {
		t.Fatalf("repeat: %v", err)
	}
	if err := ds.check("aaw@21", digest{}); err != nil {
		t.Fatalf("other key: %v", err)
	}
	d.Events++
	if err := ds.check("aaw@100", d); err == nil {
		t.Fatal("a changed event count passed the digest check")
	}
}
