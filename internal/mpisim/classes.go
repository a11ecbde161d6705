package mpisim

import "servet/internal/topology"

// Channel class sentinels for the transports that are not entries of
// m.Comm.Channels. Non-negative classes are indices into that slice.
const (
	classNetwork     = -1
	classSelf        = -2
	classNodeDefault = -3
)

// ChannelClass identifies the transport parameters channelFor selects
// between two global cores, without building a world: -1 for the
// cross-node network, -2 for a self-send, -3 for the node-default
// fallback, otherwise the index of the matching m.Comm.Channels entry.
//
// Two directed core pairs with the same class are served by channels
// with identical latency, bandwidth, eager-threshold and contention
// parameters. It must mirror channelFor's selection exactly; the
// TestChannelClassMatchesChannelFor property test pins the two
// together across every machine model.
func ChannelClass(m *topology.Machine, srcCore, dstCore int) int {
	srcNode, srcLocal := m.SplitCore(srcCore)
	dstNode, dstLocal := m.SplitCore(dstCore)
	if srcNode != dstNode {
		return classNetwork
	}
	if srcCore == dstCore {
		return classSelf
	}
	shared := m.SharedCacheLevel(srcLocal, dstLocal)
	for i := range m.Comm.Channels {
		ch := &m.Comm.Channels[i]
		if ch.SharedCacheLevel != 0 && ch.SharedCacheLevel != shared {
			continue
		}
		return i
	}
	return classNodeDefault
}

// PairClass identifies the isomorphism class of an unordered core pair
// for two-rank benchmarks: the classes of both transfer directions.
// Deterministic simulations over pairs of the same class — such as
// PingPongOneWayNS, whose only inputs besides the message are the two
// directed channels — produce bitwise-identical results, which lets
// sweeps over all O(n²) pairs measure one representative per class and
// share the raw result (see the pair sweep of core.CommunicationCosts).
func PairClass(m *topology.Machine, a, b int) [2]int {
	return [2]int{ChannelClass(m, a, b), ChannelClass(m, b, a)}
}
