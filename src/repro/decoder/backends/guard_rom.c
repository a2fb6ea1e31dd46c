/* One layered iteration of the fast backend's guard-ROM BP datapath.
 *
 * The native body of FastBackend._bp_sumsub_fixed_guard_rom plus the
 * layer update around it (see repro/decoder/backends/native.py), over
 * int16 APP and check-message memories: for every frame row and every
 * layer of the plan's processing order, gather lambda = L - Lambda
 * through the block's cyclic shift, saturate, zero-break, fold the d
 * messages through the shared state x input ROMs (z independent lanes
 * per step), then write back L = lambda + Lambda' (optionally clipped)
 * and Lambda'.  Every operation mirrors one numpy pass of the layer
 * body and wraps to int16 exactly where that pass runs in int16, so the
 * result is byte-identical.  No static state: all scratch comes
 * from the caller (z + d z int32 words for the widest layer), so
 * concurrent calls on distinct buffers are safe.
 */
#include <stdint.h>

static inline int32_t clamp(int32_t v, int32_t bound)
{
    return v > bound ? bound : (v < -bound ? -bound : v);
}

/* Port count messages of one block segment: saturating L - Lambda, then
 * an exact zero becomes +-1 signed like Lambda (+1 when Lambda is 0). */
static inline void port(const int16_t *app, const int16_t *old,
                        int32_t *msg, int64_t count, int32_t msg_max)
{
    for (int64_t r = 0; r < count; r++) {
        int32_t v = clamp((int16_t)(app[r] - old[r]), msg_max);
        v = v != 0 ? v : (old[r] < 0 ? -1 : 1);
        msg[r] = v;
    }
}

/* Extrinsic of each edge from the folded state, then the write-back. */
static inline void emit(int16_t *app, int16_t *old, const int32_t *msg,
                        const int32_t *state, const int16_t *minus,
                        int64_t count, int32_t app_max)
{
    for (int64_t r = 0; r < count; r++) {
        int16_t out = minus[state[r] + msg[r]];
        app[r] = (int16_t)clamp((int16_t)(msg[r] + out), app_max);
        old[r] = out;
    }
}

void guard_rom_iterate(
    int16_t *app, int16_t *lam, int64_t batch, int64_t n, int64_t blocks,
    int64_t z, int64_t layers, const int32_t *degrees,
    const int32_t *starts, const int32_t *shifts,
    const int32_t *rom_plus, const int16_t *rom_minus,
    int32_t msg_max, int32_t app_max, int32_t first_scale,
    int32_t first_bias, int32_t *scratch)
{
    /* ROM columns are biased messages b + m: bias the bases instead. */
    const int32_t *plus = rom_plus + msg_max;
    const int16_t *minus = rom_minus + msg_max;
    int32_t *state = scratch, *msg = scratch + z;
    for (int64_t b = 0; b < batch; b++) {
        int16_t *row = app + b * n;
        int16_t *old = lam + b * blocks * z;
        int64_t block = 0;
        for (int64_t layer = 0; layer < layers; layer++) {
            int64_t d = degrees[layer];
            for (int64_t i = 0; i < d; i++) {
                const int16_t *src = row + starts[block + i];
                int64_t s = shifts[block + i], off = i * z;
                port(src + s, old + off, msg + off, z - s, msg_max);
                port(src, old + off + z - s, msg + off + z - s, s, msg_max);
            }
            for (int64_t r = 0; r < z; r++)
                state[r] = msg[r] * first_scale + first_bias;
            for (int64_t i = 1; i < d; i++)
                for (int64_t r = 0; r < z; r++)
                    state[r] = plus[state[r] + msg[i * z + r]];
            for (int64_t i = 0; i < d; i++) {
                int16_t *dst = row + starts[block + i];
                int64_t s = shifts[block + i], off = i * z;
                emit(dst + s, old + off, msg + off, state, minus, z - s,
                     app_max);
                emit(dst, old + off + z - s, msg + off + z - s,
                     state + z - s, minus, s, app_max);
            }
            old += d * z;
            block += d;
        }
    }
}
