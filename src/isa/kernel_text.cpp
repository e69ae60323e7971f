/**
 * @file
 * Kernel text format: parser, writer, and the AddressGen factory.
 *
 * Every malformed input throws KernelError with the offending line
 * number, so a bad kernel file fails one job (or one CLI run) with a
 * machine-readable error instead of mis-executing or killing a sweep.
 */

#include "kernel_text.hpp"

#include <algorithm>
#include <fstream>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <vector>

#include "common/parse.hpp"
#include "common/sim_error.hpp"
#include "isa/address_gen.hpp"

namespace apres {

namespace {

/**
 * Largest window footprint / irregular region the text accepts, in
 * bytes: line arithmetic (alignment, lines * 128) cannot overflow and
 * the footprint stays a positive int64 modulus.
 */
constexpr std::uint64_t kMaxRegionBytes = std::uint64_t{1} << 62;

constexpr std::uint64_t kIntMax = std::numeric_limits<int>::max();

/** Parse a register number (the digits of `rN`) strictly. */
int
parseRegNumber(const std::string& digits, const std::string& text,
               const std::string& context)
{
    std::uint64_t n = 0;
    if (!parseUint64DecOrHex(digits, &n) || n > kIntMax)
        throwKernelError(context + ": expected register rN, got '" + text +
                         "'");
    return static_cast<int>(n);
}

/** key=value map from the tail of a generator/instruction line. */
class Params
{
  public:
    Params(std::istringstream& in, const std::string& context)
        : context_(context)
    {
        std::string token;
        while (in >> token) {
            const auto eq = token.find('=');
            if (eq == std::string::npos || eq == 0)
                throwKernelError(context + ": expected key=value, got '" +
                                 token + "'");
            values[token.substr(0, eq)] = token.substr(eq + 1);
        }
    }

    bool has(const std::string& key) const { return values.count(key) != 0; }

    /**
     * Unsigned attribute, a whole decimal or 0x token in
     * [@p min_value, @p max_value]; @p fallback when absent.
     */
    std::uint64_t
    getU64(const std::string& key, std::uint64_t fallback,
           std::uint64_t min_value = 0,
           std::uint64_t max_value = ~std::uint64_t{0}) const
    {
        const auto it = values.find(key);
        if (it == values.end())
            return fallback;
        std::uint64_t value = 0;
        if (!parseUint64DecOrHex(it->second, &value))
            throwKernelError(context_ + ": " + key + "=" + it->second +
                             " is not a decimal or 0x integer");
        if (value < min_value || value > max_value) {
            throwKernelError(context_ + ": " + key + "=" + it->second +
                             " outside [" + std::to_string(min_value) +
                             ", " + std::to_string(max_value) + "]");
        }
        return value;
    }

    std::uint64_t
    requireU64(const std::string& key, std::uint64_t min_value = 0,
               std::uint64_t max_value = ~std::uint64_t{0}) const
    {
        if (!has(key))
            throwKernelError(context_ + ": missing required key '" + key +
                             "'");
        return getU64(key, 0, min_value, max_value);
    }

    /** getU64 narrowed to int; the range must lie within int. */
    int
    getInt(const std::string& key, int fallback, int min_value,
           int max_value = std::numeric_limits<int>::max()) const
    {
        return static_cast<int>(getU64(
            key, static_cast<std::uint64_t>(fallback),
            static_cast<std::uint64_t>(min_value),
            static_cast<std::uint64_t>(max_value)));
    }

    std::int64_t
    getI64(const std::string& key, std::int64_t fallback) const
    {
        const auto it = values.find(key);
        if (it == values.end())
            return fallback;
        std::int64_t value = 0;
        if (!parseInt64DecOrHex(it->second, &value))
            throwKernelError(context_ + ": " + key + "=" + it->second +
                             " is not a decimal or 0x integer");
        return value;
    }

    double
    getDouble(const std::string& key, double fallback) const
    {
        const auto it = values.find(key);
        if (it == values.end())
            return fallback;
        double value = 0.0;
        if (!parseDoubleStrict(it->second, &value))
            throwKernelError(context_ + ": " + key + "=" + it->second +
                             " is not a finite number");
        return value;
    }

    /** Register-valued key: accepts both `r3` and bare `3`. */
    int
    getReg(const std::string& key) const
    {
        const auto it = values.find(key);
        if (it == values.end())
            throwKernelError(context_ + ": missing required key '" + key +
                             "'");
        const std::string& v = it->second;
        return parseRegNumber(v.substr(!v.empty() && v[0] == 'r' ? 1 : 0),
                              v, context_);
    }

  private:
    std::string context_;
    std::map<std::string, std::string> values;
};

/**
 * The `lanes=` attribute of a memory op: the SM models [1, kWarpSize]
 * active lanes, and KernelBuilder asserts that range — reject it here
 * with the line number instead.
 */
int
parseLanes(const Params& p)
{
    return p.getInt("lanes", kWarpSize, 1, kWarpSize);
}

/** Parse an `r<N>` register name. */
int
parseReg(const std::string& token, const std::string& context)
{
    if (token.size() < 2 || token[0] != 'r')
        throwKernelError(context + ": expected register rN, got '" + token +
                         "'");
    return parseRegNumber(token.substr(1), token, context);
}

} // namespace

AddressGenPtr
parseAddressGen(const std::string& text)
{
    std::istringstream in(text);
    std::string kind;
    in >> kind;
    Params p(in, "generator '" + kind + "'");

    if (kind == "uniform") {
        return std::make_unique<UniformGen>(p.requireU64("addr"));
    }
    if (kind == "window") {
        return std::make_unique<SharedWindowGen>(
            p.requireU64("base"), p.requireU64("footprint", 1, kMaxRegionBytes),
            p.getI64("iter", 0), p.getI64("skew", 0), p.getI64("sm", 0));
    }
    if (kind == "strided") {
        return std::make_unique<StridedGen>(
            p.requireU64("base"), p.getI64("warp", 0), p.getI64("iter", 0),
            p.getI64("sm", 0));
    }
    if (kind == "irregular") {
        return std::make_unique<IrregularGen>(
            p.requireU64("base"),
            p.requireU64("lines", 1, kMaxRegionBytes / 128) * 128,
            p.getInt("sharewarps", 1, 1), p.getInt("shareiters", 1, 1),
            p.getU64("seed", 1), p.getInt("lag", 0, 0));
    }
    if (kind == "zipf") {
        return std::make_unique<ZipfGen>(
            p.requireU64("base"),
            static_cast<std::size_t>(
                p.requireU64("lines", 1, ZipfGen::kMaxLines)),
            p.getDouble("alpha", 1.0), p.getU64("seed", 1));
    }
    throwKernelError("unknown address generator kind: '" + kind + "'");
}

Kernel
parseKernelText(std::istream& input)
{
    std::string name = "kernel";
    std::uint64_t trips = 1;
    std::vector<AddressGenPtr> gens;
    std::unique_ptr<KernelBuilder> builder;
    std::map<int, int> reg_map;          // file register -> builder register
    std::map<std::string, int> labels;   // label name -> body index
    std::set<Pc> explicit_pcs;           // duplicate `pc=` detection
    int last_lanes = kWarpSize;          // divergence state at a barrier

    const auto mapped = [&](int file_reg, const std::string& ctx) {
        if (file_reg < 0)
            return kNoReg;
        const auto it = reg_map.find(file_reg);
        if (it == reg_map.end())
            throwKernelError(ctx + ": register r" +
                             std::to_string(file_reg) +
                             " used before definition");
        return it->second;
    };

    // An explicit `pc=` (kInvalidPc when absent), checked for
    // uniqueness; kInvalidPc itself means "auto" and is not writable.
    const auto checkExplicitPc = [&](const Params& p,
                                     const std::string& ctx) {
        if (!p.has("pc"))
            return static_cast<Pc>(kInvalidPc);
        const Pc pc = static_cast<Pc>(p.getU64("pc", 0, 0, kInvalidPc - 1));
        if (!explicit_pcs.insert(pc).second) {
            std::ostringstream oss;
            oss << ctx << ": duplicate pc 0x" << std::hex << pc
                << " (PCs key the LLT/STR/PT tables and must be unique)";
            throwKernelError(oss.str());
        }
        return pc;
    };

    std::string line;
    int line_no = 0;
    while (std::getline(input, line)) {
        ++line_no;
        const auto hash = line.find('#');
        if (hash != std::string::npos)
            line.erase(hash);
        std::istringstream in(line);
        std::string op;
        if (!(in >> op))
            continue;
        const std::string ctx = "line " + std::to_string(line_no);

        if (op == "kernel") {
            std::string trips_token;
            if (!(in >> name >> trips_token) ||
                !parseUint64DecOrHex(trips_token, &trips) || trips < 1)
                throwKernelError(ctx + ": expected 'kernel NAME TRIPS'");
            builder = std::make_unique<KernelBuilder>(name);
        } else if (!builder) {
            throwKernelError(ctx + ": '" + op +
                             "' before the kernel header");
        } else if (op == "gen") {
            int id = 0;
            if (!(in >> id) || id != static_cast<int>(gens.size()))
                throwKernelError(ctx +
                                 ": generators must be numbered in order");
            std::string rest;
            std::getline(in, rest);
            try {
                gens.push_back(parseAddressGen(rest));
            } catch (const SimError& e) {
                throwKernelError(ctx + ": " + e.detail());
            }
        } else if (op == "label") {
            std::string label_name;
            if (!(in >> label_name))
                throwKernelError(ctx + ": expected 'label NAME'");
            if (!labels.emplace(label_name, builder->bodySize()).second)
                throwKernelError(ctx + ": duplicate label '" + label_name +
                                 "'");
        } else if (op == "loop") {
            std::string label_name;
            if (!(in >> label_name))
                throwKernelError(ctx + ": expected 'loop NAME'");
            const auto it = labels.find(label_name);
            if (it == labels.end())
                throwKernelError(
                    ctx + ": unknown label '" + label_name +
                    "' (labels must be defined before 'loop' uses them, "
                    "so branch targets can never point out of range)");
            builder->setLoopTarget(it->second);
        } else if (op == "load") {
            std::string reg_token;
            if (!(in >> reg_token))
                throwKernelError(ctx + ": expected 'load rN key=value...'");
            const int file_reg = parseReg(reg_token, ctx);
            Params p(in, ctx);
            const Pc pc = checkExplicitPc(p, ctx);
            const auto gen_id = p.requireU64("gen");
            if (gen_id >= gens.size() || gens[gen_id] == nullptr)
                throwKernelError(ctx + ": generator " +
                                 std::to_string(gen_id) +
                                 " not defined (each may be used once)");
            const int dep =
                p.has("dep") ? mapped(p.getReg("dep"), ctx) : kNoReg;
            const int lanes = parseLanes(p);
            const int reg = builder->load(std::move(gens[gen_id]),
                                          p.getInt("lanestride", 4, 0), pc,
                                          dep, lanes);
            reg_map[file_reg] = reg;
            last_lanes = lanes;
        } else if (op == "alu" || op == "sfu") {
            std::string dst_token;
            if (!(in >> dst_token))
                throwKernelError(ctx + ": expected '" + op +
                                 " rDST [rSRC...]'");
            const int file_dst = parseReg(dst_token, ctx);
            std::vector<int> srcs;
            int latency = op == "alu" ? 8 : 20;
            std::string token;
            while (in >> token) {
                if (token.rfind("lat=", 0) == 0) {
                    std::uint64_t lat = 0;
                    if (!parseUint64DecOrHex(token.substr(4), &lat) ||
                        lat < 1 || lat > kIntMax) {
                        throwKernelError(ctx + ": lat=" +
                                         token.substr(4) +
                                         " must be a positive cycle "
                                         "count");
                    }
                    latency = static_cast<int>(lat);
                } else {
                    srcs.push_back(mapped(parseReg(token, ctx), ctx));
                }
            }
            if (srcs.size() > static_cast<std::size_t>(kMaxSrcRegs)) {
                throwKernelError(ctx + ": " + op + " takes at most " +
                                 std::to_string(kMaxSrcRegs) +
                                 " source registers");
            }
            const int reg = op == "alu" ? builder->alu(srcs, 1, latency)
                                        : builder->sfu(srcs, latency);
            reg_map[file_dst] = reg;
        } else if (op == "sload") {
            std::string reg_token;
            if (!(in >> reg_token))
                throwKernelError(ctx +
                                 ": expected 'sload rN key=value...'");
            const int file_reg = parseReg(reg_token, ctx);
            Params p(in, ctx);
            const auto gen_id = p.requireU64("gen");
            if (gen_id >= gens.size() || gens[gen_id] == nullptr)
                throwKernelError(ctx + ": generator " +
                                 std::to_string(gen_id) +
                                 " not defined (each may be used once)");
            const int dep =
                p.has("dep") ? mapped(p.getReg("dep"), ctx) : kNoReg;
            const int lanes = parseLanes(p);
            const int reg = builder->sharedLoad(
                std::move(gens[gen_id]), p.getInt("lanestride", 4, 0), dep,
                lanes);
            reg_map[file_reg] = reg;
            last_lanes = lanes;
        } else if (op == "store") {
            Params p(in, ctx);
            const Pc pc = checkExplicitPc(p, ctx);
            const auto gen_id = p.requireU64("gen");
            if (gen_id >= gens.size() || gens[gen_id] == nullptr)
                throwKernelError(ctx + ": generator " +
                                 std::to_string(gen_id) +
                                 " not defined (each may be used once)");
            const int src =
                p.has("src") ? mapped(p.getReg("src"), ctx) : kNoReg;
            const int lanes = parseLanes(p);
            builder->store(std::move(gens[gen_id]), src,
                           p.getInt("lanestride", 4, 0), pc, lanes);
            last_lanes = lanes;
        } else if (op == "barrier") {
            Params p(in, ctx);
            // Divergence checks: a barrier only some lanes (or some
            // warps) reach deadlocks the block on real hardware, so the
            // text format rejects both shapes outright. Partial
            // participant masks remain available to white-box tests
            // through KernelBuilder::barrier(mask).
            if (p.has("warps") &&
                p.getU64("warps", ~std::uint64_t{0}) != ~std::uint64_t{0}) {
                throwKernelError(
                    ctx + ": barrier with a partial warps= mask is a "
                    "barrier in a divergent context; kernel text only "
                    "expresses block-wide barriers");
            }
            if (last_lanes < kWarpSize) {
                throwKernelError(
                    ctx + ": barrier in a divergent context (preceding "
                    "memory op ran with lanes=" +
                    std::to_string(last_lanes) +
                    " < " + std::to_string(kWarpSize) +
                    "); real hardware would deadlock the block");
            }
            builder->barrier();
            last_lanes = kWarpSize; // a barrier reconverges the block
        } else {
            throwKernelError(ctx + ": unknown directive '" + op + "'");
        }
    }

    if (!builder)
        throwKernelError("kernel text: missing 'kernel NAME TRIPS' header");
    return builder->build(trips);
}

Kernel
parseKernelText(const std::string& text)
{
    std::istringstream in(text);
    return parseKernelText(in);
}

std::string
readKernelFile(const std::string& path)
{
    std::ifstream in(path);
    std::ostringstream text;
    if (in)
        text << in.rdbuf();
    // A missing file, a directory and an empty file all leave no text.
    if (text.str().empty())
        throwKernelError("cannot read kernel file: " + path);
    return text.str();
}

void
writeKernelText(const Kernel& kernel, std::ostream& output)
{
    output << "kernel " << kernel.name() << ' ' << kernel.tripCount()
           << '\n';
    // Generators first, numbered in addrGen order.
    int num_gens = 0;
    for (const Instruction& instr : kernel.code()) {
        if (instr.addrGenId >= 0)
            num_gens = std::max(num_gens, instr.addrGenId + 1);
    }
    for (int g = 0; g < num_gens; ++g)
        output << "gen " << g << ' ' << kernel.addrGen(g).serialize()
               << '\n';

    // A non-zero loop head round-trips as a label/loop pair.
    int loop_target = 0;
    for (const Instruction& instr : kernel.code()) {
        if (instr.op == Opcode::kBranch && instr.branchTarget > 0)
            loop_target = instr.branchTarget;
    }

    int index = 0;
    for (const Instruction& instr : kernel.code()) {
        if (loop_target > 0 && index == loop_target)
            output << "label head\n";
        ++index;
        switch (instr.op) {
          case Opcode::kSharedLoad:
            output << "sload r" << instr.dst << " gen=" << instr.addrGenId
                   << " lanestride=" << instr.laneStride
                   << " lanes=" << instr.activeLanes;
            if (instr.src[0] != kNoReg)
                output << " dep=r" << instr.src[0];
            output << '\n';
            break;
          case Opcode::kLoad:
            output << "load r" << instr.dst << " pc=0x" << std::hex
                   << instr.pc << std::dec << " gen=" << instr.addrGenId
                   << " lanestride=" << instr.laneStride
                   << " lanes=" << instr.activeLanes;
            if (instr.src[0] != kNoReg)
                output << " dep=r" << instr.src[0];
            output << '\n';
            break;
          case Opcode::kAlu:
          case Opcode::kSfu:
            output << (instr.op == Opcode::kAlu ? "alu r" : "sfu r")
                   << instr.dst;
            for (const int src : instr.src) {
                if (src != kNoReg)
                    output << " r" << src;
            }
            output << " lat=" << instr.latency << '\n';
            break;
          case Opcode::kStore:
            output << "store gen=" << instr.addrGenId
                   << " lanestride=" << instr.laneStride
                   << " lanes=" << instr.activeLanes;
            if (instr.src[0] != kNoReg)
                output << " src=r" << instr.src[0];
            output << '\n';
            break;
          case Opcode::kBarrier:
            output << "barrier\n";
            break;
          case Opcode::kBranch:
            if (instr.branchTarget > 0)
                output << "loop head\n";
            break; // otherwise implicit in the format
          case Opcode::kExit:
            break; // implicit in the format
        }
    }
}

} // namespace apres
