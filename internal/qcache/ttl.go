package qcache

import "time"

// FreshFor derives how long content described by MBasic-1 freshness
// metadata (Examples 10-12 of the paper) may serve fresh — a merged
// answer's cache lifetime, in core's answerTTL — the way HTTP does:
//
//   - DateExpires set: the time remaining until it (negative once past —
//     callers clamp or revalidate);
//   - only DateChanged set: a heuristic tenth of the age since the last
//     change (RFC 9111 §4.2.2-style — content that has not changed in ten
//     days is unlikely to change in the next one);
//   - neither usable: ok is false and the caller falls back to its
//     configured default.
func FreshFor(changed, expires, now time.Time) (ttl time.Duration, ok bool) {
	if !expires.IsZero() {
		return expires.Sub(now), true
	}
	if !changed.IsZero() && now.After(changed) {
		return now.Sub(changed) / 10, true
	}
	return 0, false
}
