package main

import (
	"fmt"
	"time"

	"adaptiveqos/internal/basestation"
	"adaptiveqos/internal/core"
	"adaptiveqos/internal/hostagent"
	"adaptiveqos/internal/profile"
	"adaptiveqos/internal/radio"
	"adaptiveqos/internal/selector"
	"adaptiveqos/internal/session"
	"adaptiveqos/internal/snmp"
	"adaptiveqos/internal/transport"
)

const (
	bsID          = "bs"
	coordinatorID = "coordinator"
)

// topology is one running session: the wired multicast segment, the
// radio segment behind the base station and, with repair, the
// archiving coordinator.
type topology struct {
	in       *inputs
	wiredNet *transport.SimNet
	radioNet *transport.SimNet
	coord    *core.Coordinator
	bs       *basestation.BaseStation
	clients  []*core.Client   // wired first, then wireless
	conns    []transport.Conn // each client's (possibly traced) connection
	hosts    []*hostagent.Host
	tiers    []radio.Tier // per wireless client, as bs.Assess reports
	budgets  []int        // last packet budget per wired client
}

func (t *topology) isWired(i int) bool { return i < t.in.spec.wired }

func (t *topology) id(i int) string {
	if t.isWired(i) {
		return wiredID(i)
	}
	return wirelessID(i - t.in.spec.wired)
}

// build assembles the session.  rec, when non-nil, wraps every client
// and base-station connection in a span-recording transport.Conn.
// Everything here counts towards setup_s.
func build(in *inputs, rec *recorder) (*topology, error) {
	s := in.spec
	t := &topology{in: in}
	t.wiredNet = transport.NewSimNet(transport.SimNetConfig{Seed: in.seed, DefaultLink: transport.Link{Loss: s.loss}})
	t.radioNet = transport.NewSimNet(transport.SimNetConfig{Seed: in.seed + 1})
	wrap := func(c transport.Conn, layer layerID) transport.Conn {
		if rec == nil {
			return c
		}
		return rec.wrap(c, layer)
	}

	var repair *core.RepairOptions
	if s.repair {
		conn, err := t.wiredNet.Attach(coordinatorID)
		if err != nil {
			return nil, err
		}
		t.coord = core.NewCoordinator(conn, session.Group{Objective: "pipebench"})
		// cmd/collab defaults.
		repair = &core.RepairOptions{Coordinator: coordinatorID, StallTimeout: 250 * time.Millisecond, MaxRetries: 6, Seed: in.seed}
	}

	for i := 0; i < s.wired; i++ {
		id := wiredID(i)
		conn, err := t.wiredNet.Attach(id)
		if err != nil {
			t.close()
			return nil, err
		}
		cfg := core.Config{MTU: s.mtu, Repair: repair}
		if s.hostRamp {
			r := in.ramps[i]
			h := hostagent.NewHost(id + "-host")
			h.SetSchedule(hostagent.ParamCPULoad, hostagent.Ramp{From: r.from, To: r.to, Steps: r.steps})
			h.Set(hostagent.ParamPageFaults, 15)
			t.hosts = append(t.hosts, h)
			cfg.Monitor = &hostagent.Monitor{
				Client: snmp.NewClient(&snmp.AgentRoundTripper{Agent: hostagent.NewAgent(h)}, snmp.V2c, "public"),
			}
		}
		if s.loss > 0 {
			// Infrastructure links stay clean: the archive must hear
			// everything to answer NACKs, and the base station has no
			// repair of its own.
			if s.repair {
				t.wiredNet.SetLinkBoth(id, coordinatorID, transport.Link{})
			}
			t.wiredNet.SetLinkBoth(id, bsID, transport.Link{})
		}
		wc := wrap(conn, layerTransport)
		c := core.NewClient(wc, cfg)
		c.Profile().SetInterest("team", selector.S(teams[in.teamOf[i]]))
		t.clients = append(t.clients, c)
		t.conns = append(t.conns, wc)
	}

	bsWired, err := t.wiredNet.Attach(bsID)
	if err != nil {
		t.close()
		return nil, err
	}
	bsRF, err := t.radioNet.Attach(bsID)
	if err != nil {
		t.close()
		return nil, err
	}
	if s.repair {
		t.wiredNet.SetLinkBoth(bsID, coordinatorID, transport.Link{})
	}
	t.bs = basestation.New(bsID, wrap(bsWired, layerBaseStation), wrap(bsRF, layerBaseStation),
		radio.NewChannel(radio.Params{}), basestation.Config{Thresholds: in.thresholds})

	for i := 0; i < s.wireless; i++ {
		id := wirelessID(i)
		conn, err := t.radioNet.Attach(id)
		if err != nil {
			t.close()
			return nil, err
		}
		// A wireless client reaches the session only through the base
		// station: radio links between clients are down.
		for j := 0; j < i; j++ {
			t.radioNet.SetLinkBoth(id, wirelessID(j), transport.Link{Down: true})
		}
		team := teams[in.teamOf[s.wired+i]]
		wc := wrap(conn, layerTransport)
		c := core.NewClient(wc, core.Config{MTU: s.mtu})
		c.Profile().SetInterest("team", selector.S(team))
		t.clients = append(t.clients, c)
		t.conns = append(t.conns, wc)
		p := profile.New(id)
		p.Interests.SetString("team", team)
		if err := rec.call(layerBaseStation, spanJoin, -1, nil, func() error {
			_, err := t.bs.Join(p, in.distances[i], 1)
			return err
		}); err != nil {
			t.close()
			return nil, fmt.Errorf("join %s: %w", id, err)
		}
	}
	t.tiers = make([]radio.Tier, s.wireless)
	for i := range t.tiers {
		a, err := t.bs.Assess(wirelessID(i))
		if err != nil {
			t.close()
			return nil, err
		}
		if a.Tier < radio.TierText {
			t.close()
			return nil, fmt.Errorf("%s below the text tier (%.1f dB)", wirelessID(i), a.SIRdB)
		}
		t.tiers[i] = a.Tier
	}

	t.budgets = make([]int, s.wired)
	for i := 0; i < s.wired; i++ {
		if err := rec.call(layerInference, spanAdapt, -1, nil, func() error {
			d, err := t.clients[i].AdaptOnce()
			t.budgets[i] = d.EffectiveBudget(16)
			return err
		}); err != nil {
			t.close()
			return nil, err
		}
	}
	return t, nil
}

// close stops every node and waits for their goroutines.
func (t *topology) close() {
	for _, c := range t.clients {
		c.Close()
	}
	if t.bs != nil {
		t.bs.Close()
	}
	if t.coord != nil {
		t.coord.Close()
	}
	t.wiredNet.Close()
	t.radioNet.Close()
}

// tierFor is the tier an image from sender reaches receiver r at:
// wired receivers take whatever the uplink admitted, wireless ones the
// lower of that and their own tier.
func (t *topology) tierFor(sender, r int) radio.Tier {
	tier := radio.TierImage
	if !t.isWired(sender) {
		tier = t.tiers[sender-t.in.spec.wired]
	}
	if !t.isWired(r) {
		if own := t.tiers[r-t.in.spec.wired]; own < tier {
			tier = own
		}
	}
	return tier
}

// receives reports whether client r should get item it.
func (t *topology) receives(it *item, r int) bool {
	if r == it.sender {
		return false
	}
	return it.team < 0 || t.in.teamOf[r] == it.team
}
