package distrun

import (
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"time"

	"repro/internal/ckpt"
	"repro/internal/dist"
	"repro/internal/obs/flight"
)

// Elastic training: the coordinator runs a rendezvous–train–recover loop.
// When a worker dies mid-job, the failure fan-out poisons every survivor's
// transport, Run returns an error on every rank, and each side comes back to
// the rendezvous — the coordinator reforms a (possibly smaller) world along
// the data-parallel axis and everyone resumes from the newest committed
// checkpoint. Workers mirror the loop with reconnect-plus-backoff, and a
// persisted cluster state lets a restarted coordinator (jaxpp-train -resume)
// pick the job back up instead of orphaning the pool.

// ElasticOptions configures the coordinator side of an elastic job.
type ElasticOptions struct {
	// CtrlAddr is the rendezvous control address to listen on.
	CtrlAddr string
	// MinReplicas is the smallest data-parallel width worth training with
	// (default 1). The world only ever shrinks in whole pipeline replicas:
	// a pool of P processes forms world (P/Stages)·Stages.
	MinReplicas int
	// MaxAttempts bounds how many failed training attempts (rendezvous
	// generations) the coordinator tolerates before giving up (default 3).
	MaxAttempts int
	// Session carries heartbeat/rendezvous tuning; its heartbeat and CRC
	// settings configure every worker through the welcome.
	Session dist.SessionOptions
	// StatePath persists the cluster state (control address, world, attempt,
	// spec) after every successful rendezvous; "" disables persistence.
	StatePath string
}

// SpecForReplicas resizes a job spec to the given data-parallel width. The
// model shape (stages, width, params, momentum) is untouched, so checkpoints
// restore across the resize; the global batch is Replicas×NumMB×MBRows, so
// the loss trajectory legitimately changes when the world shrinks.
func SpecForReplicas(spec JobSpec, replicas int) JobSpec {
	spec.DataParallel = replicas
	return spec
}

// RunElasticCoordinator runs the coordinator's rendezvous–train–recover loop
// until the job completes, the pool shrinks below MinReplicas, or MaxAttempts
// training attempts have failed. attempt numbers continue from prevAttempts
// (nonzero when resuming a persisted cluster state).
func RunElasticCoordinator(spec JobSpec, opt ElasticOptions, prevAttempts int) (*Report, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if opt.MinReplicas < 1 {
		opt.MinReplicas = 1
	}
	if opt.MaxAttempts <= 0 {
		opt.MaxAttempts = 3
	}
	maxWorld := spec.World()
	attempt := prevAttempts
	var lastErr error
	for failures := 0; failures < opt.MaxAttempts; failures++ {
		cur := spec
		sopts := opt.Session
		sopts.MinWorld = opt.MinReplicas * spec.Stages
		sess, err := dist.CoordinateFlexible(opt.CtrlAddr, maxWorld, sopts, func(procs int) (int, []byte) {
			replicas := procs / spec.Stages
			if replicas < opt.MinReplicas {
				return 0, nil // pool too small for even the minimum world
			}
			if replicas > spec.Replicas() {
				replicas = spec.Replicas() // never grow past the requested job
			}
			cur = SpecForReplicas(spec, replicas)
			return cur.World(), cur.Marshal()
		})
		if err != nil {
			if lastErr != nil {
				return nil, fmt.Errorf("distrun: elastic re-rendezvous failed: %w (after training failure: %v)", err, lastErr)
			}
			return nil, fmt.Errorf("distrun: elastic rendezvous: %w", err)
		}
		attempt++
		if opt.StatePath != "" {
			if serr := saveClusterState(opt, cur, attempt); serr != nil {
				sess.Close()
				return nil, serr
			}
		}
		log.Printf("distrun: elastic attempt %d: world %d (%d replicas × %d stages)", attempt, sess.World, cur.Replicas(), cur.Stages)
		flight.Log("rendezvous", -1, -1, fmt.Sprintf("attempt %d world %d (%d replicas × %d stages)", attempt, sess.World, cur.Replicas(), cur.Stages))
		rep, runErr := Run(sess, cur)
		if runErr == nil {
			world := sess.World
			sess.Close()
			// A world that finished below full strength may have left a
			// survivor mid-rejoin (it missed the join-grace window when the
			// world reformed). Linger on the control address long enough to
			// answer its next dial with a clean release instead of letting it
			// grind through failed joins against a dead coordinator.
			if world < maxWorld {
				grace := opt.Session.JoinGrace
				if grace <= 0 {
					grace = dist.DefaultJoinGrace
				}
				if n := dist.ReleaseStragglers(opt.CtrlAddr, 2*grace); n > 0 {
					log.Printf("distrun: released %d straggler worker(s) after job completion", n)
				}
			}
			flight.Log("job_done", -1, -1, fmt.Sprintf("attempt %d complete", attempt))
			return rep, nil
		}
		// No graceful goodbye after a failed attempt: a survivor that was not
		// receiving from the dead rank learns of the failure only from the
		// coordinator, and a bye would leave it blocked until its receive
		// timeout — past the re-rendezvous window.
		sess.Abort()
		lastErr = runErr
		flight.Log("attempt_fail", -1, -1, fmt.Sprintf("attempt %d: %v", attempt, runErr))
		log.Printf("distrun: elastic attempt %d failed: %v; returning to rendezvous at %s", attempt, runErr, opt.CtrlAddr)
	}
	return nil, fmt.Errorf("distrun: elastic job failed %d attempts, giving up: %w", opt.MaxAttempts, lastErr)
}

// saveClusterState persists the coordinator's recovery record alongside the
// checkpoints.
func saveClusterState(opt ElasticOptions, cur JobSpec, attempt int) error {
	st := &ckpt.ClusterState{
		CtrlAddr: opt.CtrlAddr,
		World:    cur.World(),
		Attempt:  attempt,
		Spec:     json.RawMessage(cur.Marshal()),
	}
	if err := ckpt.SaveState(opt.StatePath, st); err != nil {
		return fmt.Errorf("distrun: persist cluster state: %w", err)
	}
	return nil
}

// WorkerOptions configures the worker side of an elastic job.
type WorkerOptions struct {
	// Session carries rendezvous tuning; the heartbeat and CRC settings come
	// from the coordinator's welcome.
	Session dist.SessionOptions
	// Backoff is the initial reconnect delay after a failed join or a failed
	// job (default 500ms); failed joins back off exponentially to 8×.
	Backoff time.Duration
	// MaxJoinFailures bounds consecutive failed joins before the worker
	// concludes the coordinator is gone for good (default 5). Each join
	// itself retries dialing for the session's RendezvousTimeout.
	MaxJoinFailures int
}

// RunElasticWorker joins, trains, and — when a peer failure poisons the job —
// returns to the rendezvous with backoff instead of exiting. It returns nil
// when a job completes or the coordinator releases this worker (world formed
// without it), and an error only when the coordinator stays unreachable for
// MaxJoinFailures consecutive joins or the rendezvous rejects the worker.
func RunElasticWorker(ctrlAddr string, opt WorkerOptions) error {
	if opt.Backoff <= 0 {
		opt.Backoff = 500 * time.Millisecond
	}
	if opt.MaxJoinFailures <= 0 {
		opt.MaxJoinFailures = 5
	}
	joinFails := 0
	backoff := opt.Backoff
	for {
		sess, err := dist.Join(ctrlAddr, opt.Session)
		if err != nil {
			if errors.Is(err, dist.ErrReleased) {
				log.Printf("distrun: released by coordinator (world formed without this worker); exiting cleanly")
				return nil
			}
			joinFails++
			if joinFails >= opt.MaxJoinFailures {
				return fmt.Errorf("distrun: giving up after %d failed joins: %w", joinFails, err)
			}
			log.Printf("distrun: join %s failed (%v); retrying in %v", ctrlAddr, err, backoff)
			time.Sleep(backoff)
			if backoff < 8*opt.Backoff {
				backoff *= 2
			}
			continue
		}
		joinFails = 0
		backoff = opt.Backoff
		runErr := RunJob(sess)
		sess.Close()
		if runErr == nil {
			return nil
		}
		flight.Log("rejoin", sess.Rank, -1, runErr.Error())
		log.Printf("distrun: rank %d job failed (%v); rejoining %s in %v", sess.Rank, runErr, ctrlAddr, opt.Backoff)
		time.Sleep(opt.Backoff)
	}
}
