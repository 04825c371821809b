// Package replay records the quorum machines' post-dedup request-batch
// streams to disk and replays them straight into the engines — the
// serving-lane measurement backbone that turns E-family sweeps at n ≥ 4096
// into pure hot-path measurements: a replayed step skips the program
// coordinator and the sort/dedup/conflict-check pipeline, and one
// machine construction (~0.2 s at production sizes) is amortized across an
// entire trace file.
//
// A trace captures everything the engine's behavior is a deterministic
// function of — the machine's construction parameters, the LoadCells
// initializations, and every step's post-dedup form, a quorum.DedupStep —
// so record → replay reproduces StepReports and the final store
// Fingerprint bit-for-bit (the differential tests in this package assert
// it across interconnects, rails, schedules and engine counts).
//
// # File format (version 1)
//
// A trace file is the 8-byte magic "PRAMTRC1" (the trailing byte is the
// format version) followed by a stream of FRAMES, each:
//
//	kind:1  payloadLen:uvarint  payload:payloadLen  crc32c:4 (LE)
//
// where the CRC-32C covers the kind byte plus the payload, so a flipped
// kind, a mis-framed length or a corrupted payload all surface as a
// checksum error; payloadLen is additionally capped (maxFramePayload) so a
// corrupted length cannot drive allocation. The frame kinds:
//
//	header  (0x01) — exactly one, first: format version, then the
//	                 persisted fields of the machine's core.Spec — machine
//	                 kind (DMMPC / 2DMOT / Luccio'90), lane count K,
//	                 per-lane processor count n, conflict mode, map seed,
//	                 the memory and granularity exponents, dual-rail and
//	                 two-stage flags, routing policy and two-stage knobs:
//	                 everything core.Spec.Build needs to reconstruct the
//	                 machines — plus derived validation fields (variable
//	                 count, module count, redundancy, grid side, and the
//	                 start-of-recording store fingerprint) that Open
//	                 cross-checks against a fresh build, so
//	                 parameter-derivation drift or a pre-loaded store fails
//	                 loudly instead of replaying wrong costs.
//	load    (0x02) — one LoadCells call: lane, base address, values
//	                 (zigzag varints). Setup-time memory initialization.
//	step    (0x03) — one executed step of one lane: its quorum.DedupStep
//	                 (the deduplicated read batch, the reader fan-out
//	                 lists, the deduplicated write batch), and the step's
//	                 recorded costs (time, phases, copy accesses, network
//	                 cycles, contention, an FNV-1a hash of the dense
//	                 Values buffer, and an error flag). Request fields are delta-encoded: processor ids
//	                 and variable ids as zigzag varints against the
//	                 previous request in the batch (dedup emits batches in
//	                 ascending variable order, so the deltas are small),
//	                 write payloads as zigzag varints, and each read's
//	                 extra reader ids as plain varint deltas along the
//	                 run's ascending processor order.
//	barrier (0x04) — end of one round. Multi-lane traces only: the step
//	                 frames before it are the round's steps in the order
//	                 they ran, each lane at most once. A pool round lists
//	                 every lane in ascending order (lane k is workload
//	                 shard k, idle shards included); a serving round lists
//	                 only its scheduled tenants (lane t is tenant t), in
//	                 the order of the shards that ran them. Single-lane
//	                 traces have no barriers; every step frame is its own
//	                 round.
//	eof     (0x05) — exactly one, last: total recorded steps and the final
//	                 store fingerprint. A stream that ends without an eof
//	                 frame was truncated and every reader reports it.
//
// Numbers are unsigned varints (uvarint), signed values zigzag varints,
// and the few fixed-width fields (float bits, fingerprints, hashes)
// little-endian 8-byte words. The read path performs zero steady-state
// heap allocations: frames decode into reusable buffers owned by the
// Reader, so replaying a step costs exactly the engine's own work.
//
// Recording hooks quorum.StepSink (see the quorum package doc's "Record
// and replay" section): NewRecorder attaches through core.Built.SetStepSink
// and writes each frame as the sink call arrives. A decoded step Frame
// embeds the recorded quorum.DedupStep. Replaying runs each step frame as
// it is read on its lane's machine through quorum.Machine.ExecuteDedupStep,
// the live step's body without its dedup front end; frames in the order
// the steps ran mutate the shared store in that order, so one loop
// replays pool and serving captures alike. A BatchSource instead turns a
// lane's steps back into live batches with quorum.DedupStep.Reconstruct.
// The verify mode re-executes every step and compares recorded costs,
// per-step Values hashes and the final fingerprint — the
// consistency-checking methodology of trace-based P-RAM validation (cf.
// arXiv:1302.5161) applied to our own engine.
package replay
