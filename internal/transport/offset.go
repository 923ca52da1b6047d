package transport

import (
	"context"

	"pqs/internal/quorum"
)

// Offset returns a view of t whose server ids are shifted by base: a call
// to local id s is delivered to global id base+s. This is how a multi-cell
// client hands each per-cell gather engine a transport over ITS n replicas
// while the engine keeps working in cell-local ids [0, n): the engine's
// dispatch, hedging and drain never see a global identity, so the
// identity-blindness invariant (and the epsblind analyzer that mechanizes
// it) applies per cell unchanged.
//
// When t reports per-server health (HealthReporter — a breaker-enabled
// TCPClient), the returned transport forwards that too, translated into
// the same local id space, so per-cell engines keep their t=0 fast-fail
// path on degraded members. Both variants forward Immediate: when t
// implements it, CallNow reaches t's in the shifted id space, so per-cell
// engines keep their inline fast path; otherwise CallNow declines every
// call.
func Offset(t Transport, base quorum.ServerID) Transport {
	o := offset{inner: t, base: base}
	o.imm, _ = t.(Immediate)
	if hr, ok := t.(HealthReporter); ok {
		return &offsetHealth{offset: o, hr: hr}
	}
	return &o
}

// offset shifts server ids on the way down.
type offset struct {
	inner Transport
	imm   Immediate // inner's Immediate, or nil
	base  quorum.ServerID
}

// Call implements Transport.
func (o *offset) Call(ctx context.Context, to quorum.ServerID, req any) (any, error) {
	return o.inner.Call(ctx, o.base+to, req)
}

// CallNow implements Immediate, declining when the inner transport does
// not implement it.
func (o *offset) CallNow(ctx context.Context, to quorum.ServerID, req any) (resp any, err error, ok bool) {
	if o.imm == nil {
		return nil, nil, false
	}
	return o.imm.CallNow(ctx, o.base+to, req)
}

// offsetHealth additionally forwards per-server health in local ids.
type offsetHealth struct {
	offset
	hr HealthReporter
}

// ServerDown implements HealthReporter.
func (o *offsetHealth) ServerDown(id quorum.ServerID) bool {
	return o.hr.ServerDown(o.base + id)
}

var (
	_ Transport      = (*offset)(nil)
	_ Immediate      = (*offset)(nil)
	_ Immediate      = (*offsetHealth)(nil)
	_ HealthReporter = (*offsetHealth)(nil)
)
