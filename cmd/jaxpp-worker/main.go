// Command jaxpp-worker is the long-lived worker daemon of the multi-process
// runtime: it dials the coordinator's control address, completes the
// rendezvous (reporting its data-plane listen address, receiving its rank,
// the address book, and the job payload), then runs its share of the job
// over the dist wire transport. It needs no model flags — the coordinator's
// job payload is the single source of truth: it describes the training job,
// wire encoding included, and this rank steps the actor it hosts. Nor does it
// need heartbeat or CRC flags: the coordinator's welcome carries its own, and
// every worker adopts them.
//
//	jaxpp-worker -coordinator 127.0.0.1:29400
//
// With -reconnect the worker is elastic: a job poisoned by a peer's death
// sends it back to the rendezvous with backoff instead of exiting, and a
// coordinator release ("world formed without you") is a clean exit 0.
//
// The process exits 0 on job completion or release, 1 on any error —
// including a poisoned transport after a peer dies in non-elastic mode,
// which surfaces here as an error instead of a hang.
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"repro/internal/dist"
	"repro/internal/distrun"
)

func main() {
	coordinator := flag.String("coordinator", "127.0.0.1:29400", "coordinator control address")
	rank := flag.Int("rank", 0, "requested rank (0 = let the coordinator assign)")
	reconnect := flag.Bool("reconnect", false, "elastic mode: on job failure, re-join the rendezvous instead of exiting")
	backoff := flag.Duration("reconnect-backoff", 500*time.Millisecond, "elastic mode: initial re-join delay (failed joins back off exponentially to 8x)")
	maxJoinFailures := flag.Int("max-join-failures", 5, "elastic mode: consecutive failed joins before giving up on the coordinator")
	metricsAddr := flag.String("metrics-addr", "", "serve this rank's local Prometheus /metrics, /healthz, and /debug/cluster on this address (arms per-step telemetry locally)")
	flightDir := flag.String("flight-dir", "", "record this rank's job/failure events into a crash-surviving flight-recorder ring in this directory (replay with jaxpp-viz -flight)")
	flag.Parse()

	onMetrics, telDone, err := distrun.SetupTelemetry(*metricsAddr, *flightDir, true)
	if err != nil {
		log.Fatal(err)
	}
	defer telDone()

	opts := dist.SessionOptions{WantRank: *rank, OnMetrics: onMetrics}
	if *reconnect {
		err := distrun.RunElasticWorker(*coordinator, distrun.WorkerOptions{
			Session:         opts,
			Backoff:         *backoff,
			MaxJoinFailures: *maxJoinFailures,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "jaxpp-worker:", err)
			os.Exit(1)
		}
		fmt.Println("jaxpp-worker: done")
		return
	}

	sess, err := dist.Join(*coordinator, opts)
	if err != nil {
		if errors.Is(err, dist.ErrReleased) {
			fmt.Println("jaxpp-worker: released by coordinator; exiting")
			return
		}
		log.Fatal(err)
	}
	defer sess.Close()
	fmt.Printf("jaxpp-worker: rank %d of %d\n", sess.Rank, sess.World)
	if err := distrun.RunJob(sess); err != nil {
		fmt.Fprintln(os.Stderr, "jaxpp-worker:", err)
		os.Exit(1)
	}
	fmt.Printf("jaxpp-worker: rank %d done\n", sess.Rank)
}
