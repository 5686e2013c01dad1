package protocol_test

import (
	"testing"

	"routesync/internal/linkstate"
	"routesync/internal/netsim"
	"routesync/internal/pathvector"
	"routesync/internal/routing"
)

// TestSendPayloadCapacity checks each family's send path end to end:
// every routing packet a family encodes lands with a payload whose
// capacity is exactly that of a fresh copy of its bytes — the slot's
// arena is grown to the message's exact length before the family
// writes into it, never by an append that overshoots. The receivers hold
// every packet until the end, so each send draws a fresh slot.
func TestSendPayloadCapacity(t *testing.T) {
	for _, tc := range []struct {
		name  string
		start func(src *netsim.Node, links []*netsim.Link)
	}{
		{"distance-vector", func(src *netsim.Node, _ []*netsim.Link) {
			a := routing.NewAgent(src, routing.Config{Profile: routing.RIP(), ExtraRoutes: 5, RequestOnStart: true})
			a.Start(0)
		}},
		{"path-vector", func(src *netsim.Node, links []*netsim.Link) {
			var peers []pathvector.PeerConfig
			for _, l := range links {
				peers = append(peers, pathvector.PeerConfig{Link: l, Rel: pathvector.RelCustomer})
			}
			a := pathvector.NewAgent(src, pathvector.Config{
				Origins:       pathvector.NewOriginSet([]netsim.NodeID{src.ID}),
				Peers:         peers,
				RefreshPeriod: 30,
			})
			a.Start(0)
		}},
		{"link-state", func(src *netsim.Node, _ []*netsim.Link) {
			a := linkstate.NewAgent(src, linkstate.Config{RefreshPeriod: 30})
			a.Start(0)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			net := netsim.NewNetwork(1)
			src := net.NewNode("src", nil)
			var links []*netsim.Link
			type arrival struct {
				at  *netsim.Node
				pkt *netsim.Packet
			}
			var held []arrival
			for _, name := range []string{"r1", "r2"} {
				dst := net.NewNode(name, nil)
				links = append(links, net.Connect(src, dst, netsim.LinkConfig{Delay: 0.001, QueueCap: 8}))
				dst.OnRouting = func(pkt *netsim.Packet, _ netsim.Medium) { held = append(held, arrival{dst, pkt}) }
			}
			tc.start(src, links)
			net.RunUntil(1)
			if len(held) < 2 {
				t.Fatalf("receivers got %d packets, want one per link at least", len(held))
			}
			for _, h := range held {
				pkt := h.pkt
				fresh := append([]byte(nil), pkt.Payload...)
				if len(pkt.Payload) == 0 || cap(pkt.Payload) != cap(fresh) || pkt.Size != 28+len(pkt.Payload) {
					t.Errorf("packet %d: payload len %d cap %d, size %d; a fresh copy has cap %d",
						pkt.ID, len(pkt.Payload), cap(pkt.Payload), pkt.Size, cap(fresh))
				}
				h.at.ReleasePacket(pkt)
			}
			if live := net.LivePackets(); live != 0 {
				t.Fatalf("%d packets live after releasing every one received", live)
			}
		})
	}
}
