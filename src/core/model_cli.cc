#include "core/model_cli.hh"

#include <algorithm>
#include <climits>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "core/cli.hh"
#include "core/report.hh"
#include "power/arbiter_model.hh"
#include "power/buffer_model.hh"
#include "power/central_buffer_model.hh"
#include "power/crossbar_model.hh"
#include "power/link_model.hh"
#include "tech/tech_node.hh"

namespace orion::cli {

namespace {

using orion::report::fmt;
using orion::report::fmtEng;

[[noreturn]] void
fail(const std::string& what)
{
    throw std::invalid_argument(what);
}

/** One key a component takes: `--NAME PLACEHOLDER`, or a switch when
 * it has no placeholder (off unless given). */
struct Key
{
    const char* name;
    const char* placeholder;
    const char* fallback; ///< the value when not given; nullptr: required
};

// Keys several components take.
const Key kFeature{"feature-um", "F", "0.1"};
const Key kVdd{"vdd", "V", "1.2"};
const Key kCsv{"csv", nullptr, nullptr};

struct Query;

/** A model orion_models evaluates, with every key it takes. */
struct Component
{
    const char* name;
    std::vector<Key> keys;
    /** Fill the quantity/value table. */
    void (*run)(const Query&, report::Table&);
};

/** A parsed query: each of its component's keys with the text given,
 * else the key's fallback ("" for an absent required key or an unset
 * switch). */
struct Query
{
    const Component& component;
    std::vector<std::string> values;

    /** @p key's text (at() throws on a key the component lacks). */
    const std::string&
    text(const char* key) const
    {
        std::size_t i = 0;
        while (std::strcmp(component.keys.at(i).name, key) != 0)
            ++i;
        return values[i];
    }

    /** A finite number >= 0 (no model takes a negative one); 0 when
     * absent. */
    double
    number(const char* key) const
    {
        const std::string& v = text(key);
        const double d =
            v.empty() ? 0.0 : parseDouble(std::string("--") + key, v);
        if (d < 0.0)
            fail(std::string("--") + key + " must be non-negative");
        return d;
    }

    /** A count of at least 1 (every model asserts its counts). */
    unsigned
    count(const char* key) const
    {
        const std::string& v = text(key);
        const auto n =
            v.empty() ? 0 : parseU64(std::string("--") + key, v, UINT_MAX);
        if (n < 1)
            fail(std::string("--") + key + " is required and must be >= 1");
        return static_cast<unsigned>(n);
    }

    bool isSet(const char* key) const { return !text(key).empty(); }
};

/** The on-chip models' technology. None of them prints a power, so
 * the clock (any positive value builds the node) does not matter. */
tech::TechNode
onChipTech(const Query& q)
{
    const double feature = q.number("feature-um");
    const double vdd = q.number("vdd");
    if (feature <= 0.0 || vdd <= 0.0)
        fail("--feature-um and --vdd must be positive");
    return tech::TechNode::scaled(feature, vdd, 2e9);
}

void
bufferQuery(const Query& q, report::Table& t)
{
    const tech::TechNode tech = onChipTech(q);
    const power::BufferParams p{
        q.count("flits"), q.count("bits"),
        q.count("read-ports"), q.count("write-ports")};
    const power::BufferModel m(tech, p);
    t.title = "FIFO buffer model (Table 2)";
    t.addRow({"L_wl", fmt(m.wordlineLengthUm(), 1) + " um"});
    t.addRow({"L_bl", fmt(m.bitlineLengthUm(), 1) + " um"});
    t.addRow({"C_wl", fmtEng(m.wordlineCap(), "F", 2)});
    t.addRow({"C_br", fmtEng(m.readBitlineCap(), "F", 2)});
    t.addRow({"C_bw", fmtEng(m.writeBitlineCap(), "F", 2)});
    t.addRow({"C_chg", fmtEng(m.prechargeCap(), "F", 2)});
    t.addRow({"C_cell", fmtEng(m.cellCap(), "F", 2)});
    t.addRow({"E_read", fmtEng(m.readEnergy(), "J", 2)});
    t.addRow({"E_wrt (avg)", fmtEng(m.avgWriteEnergy(), "J", 2)});
    t.addRow({"area", fmt(m.areaUm2() / 1e6, 4) + " mm2"});
}

void
crossbarQuery(const Query& q, report::Table& t)
{
    const tech::TechNode tech = onChipTech(q);
    const bool mux_tree = q.isSet("mux-tree");
    const power::CrossbarParams p{
        q.count("inputs"), q.count("outputs"), q.count("width"),
        mux_tree ? power::CrossbarKind::MuxTree
                 : power::CrossbarKind::Matrix,
        q.number("load-ff") * 1e-15};
    const power::CrossbarModel m(tech, p);
    t.title = mux_tree ? "mux-tree crossbar model (Table 3)"
                       : "matrix crossbar model (Table 3)";
    t.addRow({"L_in", fmt(m.inputLengthUm(), 1) + " um"});
    t.addRow({"L_out", fmt(m.outputLengthUm(), 1) + " um"});
    t.addRow({"C_in/bit", fmtEng(m.inputCap(), "F", 2)});
    t.addRow({"C_out/bit", fmtEng(m.outputCap(), "F", 2)});
    t.addRow({"C_xb_ctr", fmtEng(m.controlCap(), "F", 2)});
    t.addRow({"E_xb (avg)", fmtEng(m.avgTraversalEnergy(), "J", 2)});
    t.addRow({"E_xb_ctr", fmtEng(m.controlEnergy(), "J", 2)});
    t.addRow({"area", fmt(m.areaUm2() / 1e6, 4) + " mm2"});
}

void
arbiterQuery(const Query& q, report::Table& t)
{
    const tech::TechNode tech = onChipTech(q);
    power::ArbiterKind kind = power::ArbiterKind::Matrix;
    const std::string& k = q.text("kind");
    if (k == "rr")
        kind = power::ArbiterKind::RoundRobin;
    else if (k == "queuing")
        kind = power::ArbiterKind::Queuing;
    else if (k != "matrix")
        fail("--kind: unknown arbiter kind '" + k + "'");
    const power::ArbiterModel m(
        tech, {q.count("requests"), kind,
               q.number("xbar-ctrl-ff") * 1e-15});
    t.title = "arbiter model (Table 4)";
    t.addRow({"priority flip-flops",
              std::to_string(m.priorityFlipFlops())});
    t.addRow({"C_req", fmtEng(m.requestCap(), "F", 2)});
    t.addRow({"C_pri", fmtEng(m.priorityCap(), "F", 2)});
    t.addRow({"C_int", fmtEng(m.internalCap(), "F", 2)});
    t.addRow({"C_gnt", fmtEng(m.grantCap(), "F", 2)});
    t.addRow({"E_arb (avg)",
              fmtEng(m.avgArbitrationEnergy(), "J", 2)});
}

void
centralBufferQuery(const Query& q, report::Table& t)
{
    const tech::TechNode tech = onChipTech(q);
    const power::CentralBufferParams p{
        q.count("banks"),          q.count("rows"),
        q.count("bits"),           q.count("read-ports"),
        q.count("write-ports"),    q.count("router-ports"),
        2};
    const power::CentralBufferModel m(tech, p);
    t.title = "central buffer model (hierarchical, Section 3.2)";
    t.addRow({"bank E_read", fmtEng(m.bankModel().readEnergy(), "J",
                                    2)});
    t.addRow({"E_write (avg)", fmtEng(m.avgWriteEnergy(), "J", 2)});
    t.addRow({"E_read (avg)", fmtEng(m.avgReadEnergy(), "J", 2)});
    t.addRow({"area", fmt(m.areaUm2() / 1e6, 4) + " mm2"});
}

void
linkQuery(const Query& q, report::Table& t)
{
    const tech::TechNode tech = onChipTech(q);
    const double length = q.number("length-um");
    if (length <= 0.0)
        fail("--length-um is required and must be positive");
    const power::OnChipLinkModel m(tech, length, q.count("width"));
    t.title = "on-chip link model";
    t.addRow({"C_wire/bit", fmtEng(m.wireCap(), "F", 2)});
    t.addRow({"E_link (avg)", fmtEng(m.avgTraversalEnergy(), "J", 2)});
    t.addRow({"E_link/bit", fmtEng(m.traversalEnergy(1), "J", 2)});
}

void
c2cLinkQuery(const Query& q, report::Table& t)
{
    const double ghz = q.number("freq-ghz");
    // number() checks finiteness; a huge GHz still overflows to inf Hz.
    if (ghz <= 0.0 || !std::isfinite(ghz * 1e9))
        fail("--freq-ghz must be positive");
    const power::ChipToChipLinkModel m(q.number("watts"));
    t.title = "chip-to-chip link model (constant power)";
    t.addRow({"power", fmt(m.powerWatts(), 2) + " W"});
    t.addRow({"energy/cycle",
              fmtEng(m.energyOver(1.0 / (ghz * 1e9), 1.0), "J", 2)});
}

const Component kComponents[] = {
    {"buffer",
     {{"flits", "B", nullptr}, {"bits", "F", nullptr},
      {"read-ports", "N", "1"}, {"write-ports", "N", "1"}, kFeature, kVdd,
      kCsv},
     bufferQuery},
    {"crossbar",
     {{"inputs", "I", nullptr}, {"outputs", "O", nullptr},
      {"width", "W", nullptr}, {"mux-tree", nullptr, nullptr},
      {"load-ff", "F", "0"}, kFeature, kVdd, kCsv},
     crossbarQuery},
    {"arbiter",
     {{"requests", "R", nullptr}, {"kind", "matrix|rr|queuing", "matrix"},
      {"xbar-ctrl-ff", "F", "0"}, kFeature, kVdd, kCsv},
     arbiterQuery},
    {"central-buffer",
     {{"banks", "N", nullptr}, {"rows", "N", nullptr}, {"bits", "F", nullptr},
      {"read-ports", "N", "2"}, {"write-ports", "N", "2"},
      {"router-ports", "N", "5"}, kFeature, kVdd, kCsv},
     centralBufferQuery},
    {"link",
     {{"length-um", "L", nullptr}, {"width", "W", nullptr}, kFeature, kVdd,
      kCsv},
     linkQuery},
    {"c2c-link", {{"watts", "W", "3.0"}, {"freq-ghz", "G", "2.0"}, kCsv},
     c2cLinkQuery},
};

} // namespace

std::string
modelUsage()
{
    std::string out = "usage: orion_models COMPONENT [options]\n";
    for (const Component& c : kComponents) {
        out += std::string("\n") + c.name + "\n";
        for (const Key& k : c.keys) {
            std::string line = std::string("  --") + k.name;
            if (k.placeholder != nullptr)
                line += std::string(" ") + k.placeholder;
            line.resize(std::max<std::size_t>(line.size() + 2, 22), ' ');
            out += line +
                   (k.placeholder == nullptr ? "switch"
                    : k.fallback == nullptr
                        ? "required"
                        : std::string("default ") + k.fallback) +
                   "\n";
        }
    }
    return out;
}

std::string
runModelQuery(const std::vector<std::string>& args)
{
    if (args.empty() || args.front() == "--help" || args.front() == "-h")
        return modelUsage();

    try {
        const Component* c = std::find_if(
            std::begin(kComponents), std::end(kComponents),
            [&](const Component& comp) { return args.front() == comp.name; });
        if (c == std::end(kComponents))
            fail("unknown component '" + args.front() + "'");
        Query q{*c, {}};
        for (const Key& k : c->keys)
            q.values.emplace_back(k.fallback != nullptr ? k.fallback : "");
        for (std::size_t i = 1; i < args.size(); ++i) {
            const std::string& a = args[i];
            if (a.rfind("--", 0) != 0)
                fail("unexpected argument '" + a + "'");
            std::size_t k = 0;
            while (k < c->keys.size() && a.substr(2) != c->keys[k].name)
                ++k;
            if (k == c->keys.size())
                fail(std::string(c->name) + " does not take " + a);
            if (c->keys[k].placeholder == nullptr)
                q.values[k] = "1";
            else if (i + 1 < args.size())
                q.values[k] = args[++i];
            else
                fail(a + ": missing value");
        }
        report::Table t;
        t.headers = {"quantity", "value"};
        c->run(q, t);
        return q.isSet("csv") ? report::formatCsv(t)
                              : report::formatTable(t);
    } catch (const std::invalid_argument& e) {
        throw std::invalid_argument(std::string("orion_models: ") +
                                    e.what() + " (--help for usage)");
    }
}

} // namespace orion::cli
