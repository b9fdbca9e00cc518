package experiments

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/msg"
	"repro/internal/sim"
	"repro/internal/stats"
)

// RunF5 reproduces Fig 5 / §3.3: after a transient partition during which
// the server started timing a client out, the recovered-but-inconsistent
// client keeps sending valid requests. With the NACK the very first reply
// tells it to enter recovery; with the server merely ignoring it (the
// ablation), the client burns retries and keep-alives until its lease
// runs out on its own. We count the client's control messages from the
// heal until it reaches recovery, and how long it kept believing its
// cache.
func RunF5(p Params) *Result {
	res := &Result{ID: "F5", Title: "NACK vs silent-ignore for inconsistent clients"}
	res.Table = stats.NewTable("",
		"server behaviour", "msgs after heal", "retries after heal", "time to quiesce", "time to rejoin")

	for _, noNACK := range []bool{false, true} {
		name := "NACK (paper)"
		if noNACK {
			name = "ignore (ablation)"
		}
		msgs, retries, quiesce, rejoin := nackScenario(p, noNACK)
		res.Table.AddRow(name,
			stats.FmtN(msgs),
			stats.FmtN(retries),
			quiesce.Round(time.Millisecond).String(),
			rejoin.Round(time.Millisecond).String(),
		)
		prefix := "nack"
		if noNACK {
			prefix = "ignore"
		}
		res.Metric(prefix+".msgs_after_heal", float64(msgs))
		res.Metric(prefix+".time_to_quiesce_secs", quiesce.Seconds())
		res.Metric(prefix+".time_to_rejoin_secs", rejoin.Seconds())
	}
	res.Table.AddNote("transient partition long enough for the server to begin the lease timeout, then healed")
	return res
}

func nackScenario(p Params, noNACK bool) (msgs, retries uint64, timeToQuiesce, timeToRejoin time.Duration) {
	opts := baseOptions(p.Seed)
	opts.Clients = 2
	opts.NoNACK = noNACK
	cl := cluster.New(opts)
	cl.Start()
	tau := opts.Core.Tau

	// Client 0 holds the lock; transient partition makes it miss the
	// demand triggered by client 1, so the server starts its timeout.
	h0, _ := cl.MustOpen(0, "/f5", true, true)
	mustOK(cl.Write(0, h0, 0, blockData('A')))
	mustOK(cl.Sync(0))

	cl.IsolateClient(0)
	h1, _, _ := cl.Open(1, "/f5", true, false)
	cl.Clients[1].Write(h1, 0, blockData('B'), func(msg.Errno) {})
	// Run just long enough for the demand retries to fail (delivery
	// failure → suspect) but far less than τ.
	cl.RunFor(2 * time.Second)
	if !cl.Shards[0].Server.Authority().Suspect(cluster.ClientID(0)) {
		panic("f5: server never became suspicious")
	}

	// Heal: the transient failure is over; client 0 has missed a message
	// but does not know it.
	cl.HealControl()
	healAt := cl.Sched.Now()
	sentBase := cl.Reg.CounterValue(fmt.Sprintf("client.%v.chan.sent", cluster.ClientID(0)))
	retryBase := cl.Reg.CounterValue(fmt.Sprintf("client.%v.chan.retries", cluster.ClientID(0)))

	// The client now sends an ordinary valid request (§3.3's "sends new
	// requests to a server").
	var quiesceAt, rejoinAt sim.Time
	cl.Clients[0].Sub(0).OnRecovered = func(msg.Epoch) {
		if rejoinAt == 0 {
			rejoinAt = cl.Sched.Now()
		}
	}
	cl.Clients[0].Lookup("/f5-after-heal", func(msg.Attr, msg.Errno) {}) // a name the cache cannot answer
	cl.Sched.RunWhile(func() bool {
		if quiesceAt == 0 && cl.Clients[0].Sub(0).Quiesced() {
			quiesceAt = cl.Sched.Now()
		}
		return rejoinAt == 0 && cl.Sched.Now().Sub(healAt) < 3*tau
	})
	if quiesceAt == 0 {
		quiesceAt = cl.Sched.Now()
	}
	if rejoinAt == 0 {
		rejoinAt = cl.Sched.Now()
	}

	msgs = cl.Reg.CounterValue(fmt.Sprintf("client.%v.chan.sent", cluster.ClientID(0))) - sentBase
	retries = cl.Reg.CounterValue(fmt.Sprintf("client.%v.chan.retries", cluster.ClientID(0))) - retryBase
	return msgs, retries, quiesceAt.Sub(healAt), rejoinAt.Sub(healAt)
}
