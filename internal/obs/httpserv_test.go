package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

func httpGet(t *testing.T, url string) (int, string) {
	t.Helper()
	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	return resp.StatusCode, string(body)
}

func TestMetricsServer(t *testing.T) {
	tl := NewClusterTimeline()
	tl.Ingest(StepSample{Rank: 0, Step: 9, WallNs: 12e6, ComputeNs: 8e6, WireNs: 3e6,
		IdleNs: 1e6, BytesSent: 4096, BytesRecvd: 2048, QueueDepth: 1, PoolHit: 9, PoolMiss: 1, Allocs: 100})
	tl.Ingest(StepSample{Rank: 1, Step: 9, WallNs: 13e6})

	ms, err := StartMetricsServer("127.0.0.1:0", tl)
	if err != nil {
		t.Fatal(err)
	}
	defer ms.Close()
	base := "http://" + ms.Addr()

	code, body := httpGet(t, base+"/metrics")
	if code != 200 {
		t.Fatalf("/metrics status %d", code)
	}
	for _, want := range []string{
		`jaxpp_step_total{rank="0"} 10`,
		`jaxpp_step_total{rank="1"} 10`,
		`jaxpp_step_wall_ms{rank="0"} 12`,
		`jaxpp_pool_hit_rate_pct{rank="0"} 90`,
		`jaxpp_straggler{rank="0"} 0`,
		"jaxpp_ranks 2",
		"jaxpp_straggler_flags_total 0",
		"# TYPE jaxpp_step_total counter",
		"jaxpp_obs_counter{name=",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if t.Failed() {
		t.Fatalf("full body:\n%s", body)
	}

	code, body = httpGet(t, base+"/healthz")
	if code != 200 || !strings.Contains(body, "ok") {
		t.Fatalf("/healthz = %d %q", code, body)
	}

	code, body = httpGet(t, base+"/debug/cluster")
	if code != 200 {
		t.Fatalf("/debug/cluster status %d", code)
	}
	var snap struct {
		Ranks      map[string]RankState `json:"ranks"`
		Stragglers []int64              `json:"stragglers"`
	}
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("/debug/cluster not JSON: %v\n%s", err, body)
	}
	if len(snap.Ranks) != 2 || snap.Ranks["0"].Last.Step != 9 {
		t.Fatalf("/debug/cluster ranks: %+v", snap.Ranks)
	}
}

// The /metrics view must follow what its timeline ingests: ingest more steps,
// scrape again, counters advance — the property TestLegs' metrics leg asserts
// across ranks, where a session's OnMetrics sink does the ingesting.
func TestMetricsServerFollowsIngest(t *testing.T) {
	tl := NewClusterTimeline()
	ms, err := StartMetricsServer("127.0.0.1:0", tl)
	if err != nil {
		t.Fatal(err)
	}
	defer ms.Close()
	base := "http://" + ms.Addr()

	tl.Ingest(StepSample{Rank: 0, Step: 0, WallNs: 1e6})
	_, body := httpGet(t, base+"/metrics")
	if !strings.Contains(body, `jaxpp_step_total{rank="0"} 1`) {
		t.Fatalf("first scrape missing step 1:\n%s", body)
	}
	for s := int64(1); s <= 4; s++ {
		tl.Ingest(StepSample{Rank: 0, Step: s, WallNs: 1e6})
	}
	_, body = httpGet(t, base+"/metrics")
	if !strings.Contains(body, `jaxpp_step_total{rank="0"} 5`) {
		t.Fatalf("second scrape did not advance:\n%s", body)
	}
}

func TestMetricsServerBadAddr(t *testing.T) {
	if _, err := StartMetricsServer("256.0.0.1:bad", NewClusterTimeline()); err == nil {
		t.Fatal("bad address accepted")
	}
}

func ExampleStepSample_PoolHitPct() {
	s := StepSample{PoolHit: 3, PoolMiss: 1}
	fmt.Println(s.PoolHitPct())
	// Output: 75
}
