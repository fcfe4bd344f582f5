/**
 * @file
 * Tests for the standalone power-model query tool: every component
 * query, parameter defaulting, technology overrides, CSV output, and
 * error handling.
 */

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "core/model_cli.hh"
#include "core/report.hh"
#include "power/buffer_model.hh"
#include "tech/tech_node.hh"

namespace {

using namespace orion;
using orion::cli::runModelQuery;

TEST(ModelCli, EmptyAndHelpShowUsage)
{
    EXPECT_EQ(runModelQuery({}), cli::modelUsage());
    EXPECT_EQ(runModelQuery({"--help"}), cli::modelUsage());
    EXPECT_NE(cli::modelUsage().find("buffer"), std::string::npos);
}

TEST(ModelCli, BufferQueryListsTable2Quantities)
{
    const std::string out =
        runModelQuery({"buffer", "--flits", "64", "--bits", "256"});
    for (const char* key : {"L_wl", "L_bl", "C_wl", "C_br", "C_bw",
                            "C_chg", "C_cell", "E_read", "E_wrt"}) {
        EXPECT_NE(out.find(key), std::string::npos) << key;
    }
}

TEST(ModelCli, BufferValuesMatchLibrary)
{
    // The printed E_read must be the library model's value.
    const tech::TechNode t = tech::TechNode::scaled(0.1, 1.2, 2e9);
    const power::BufferModel m(t, {64, 256, 1, 1});
    const std::string expect =
        report::fmtEng(m.readEnergy(), "J", 2);
    const std::string out =
        runModelQuery({"buffer", "--flits", "64", "--bits", "256"});
    EXPECT_NE(out.find(expect), std::string::npos);
}

TEST(ModelCli, CrossbarMatrixAndMuxTree)
{
    const std::string matrix = runModelQuery(
        {"crossbar", "--inputs", "5", "--outputs", "5", "--width",
         "256"});
    EXPECT_NE(matrix.find("matrix crossbar"), std::string::npos);
    const std::string tree = runModelQuery(
        {"crossbar", "--inputs", "5", "--outputs", "5", "--width",
         "256", "--mux-tree"});
    EXPECT_NE(tree.find("mux-tree crossbar"), std::string::npos);
    EXPECT_NE(matrix, tree);
}

TEST(ModelCli, ArbiterKinds)
{
    const std::string m =
        runModelQuery({"arbiter", "--requests", "4"});
    EXPECT_NE(m.find("priority flip-flops"), std::string::npos);
    EXPECT_NE(m.find("| 6"), std::string::npos); // 4*3/2

    const std::string rr = runModelQuery(
        {"arbiter", "--requests", "4", "--kind", "rr"});
    EXPECT_NE(rr.find("| 4"), std::string::npos);

    EXPECT_THROW(
        runModelQuery({"arbiter", "--requests", "4", "--kind", "x"}),
        std::invalid_argument);
}

TEST(ModelCli, CentralBufferAndLinks)
{
    const std::string cb = runModelQuery(
        {"central-buffer", "--banks", "4", "--rows", "2560", "--bits",
         "32"});
    EXPECT_NE(cb.find("bank E_read"), std::string::npos);

    const std::string link = runModelQuery(
        {"link", "--length-um", "3000", "--width", "256"});
    EXPECT_NE(link.find("C_wire/bit"), std::string::npos);

    const std::string c2c = runModelQuery({"c2c-link"});
    EXPECT_NE(c2c.find("3.00 W"), std::string::npos);
}

TEST(ModelCli, TechnologyOverridesChangeResults)
{
    const std::string base =
        runModelQuery({"buffer", "--flits", "16", "--bits", "64"});
    const std::string scaled = runModelQuery(
        {"buffer", "--flits", "16", "--bits", "64", "--feature-um",
         "0.07", "--vdd", "0.9"});
    EXPECT_NE(base, scaled);
}

TEST(ModelCli, CsvOutput)
{
    const std::string out = runModelQuery(
        {"buffer", "--flits", "16", "--bits", "64", "--csv"});
    EXPECT_NE(out.find("quantity,value"), std::string::npos);
    EXPECT_EQ(out.find("+---"), std::string::npos);
}

TEST(ModelCli, Errors)
{
    EXPECT_THROW(runModelQuery({"bogus"}), std::invalid_argument);
    EXPECT_THROW(runModelQuery({"buffer"}), std::invalid_argument);
    EXPECT_THROW(runModelQuery({"buffer", "--flits"}),
                 std::invalid_argument);
    EXPECT_THROW(runModelQuery({"buffer", "--flits", "ten", "--bits",
                                "64"}),
                 std::invalid_argument);
    EXPECT_THROW(runModelQuery({"buffer", "--flits", "1.5", "--bits",
                                "64"}),
                 std::invalid_argument);
    EXPECT_THROW(runModelQuery({"link", "--width", "64"}),
                 std::invalid_argument);
    EXPECT_THROW(runModelQuery({"buffer", "--flits", "16", "--bits",
                                "64", "--vdd", "-1"}),
                 std::invalid_argument);

    // Values a model constructor asserts against (zero counts,
    // non-finite technology, negative power) are usage errors that
    // name the tool, never an abort or a table of inf.
    const std::vector<std::vector<std::string>> rejected = {
        {"buffer", "--flits", "0", "--bits", "64"},
        {"arbiter", "--requests", "0"},
        {"buffer", "--flits", "4", "--bits", "64", "--vdd", "nan"},
        {"buffer", "--flits", "4", "--bits", "64", "--feature-um", "inf"},
        {"c2c-link", "--freq-ghz", "1e300"},
        {"central-buffer", "--banks", "1", "--rows", "4", "--bits", "8",
         "--router-ports", "0"},
        {"link", "--length-um", "10", "--width", "0"},
        {"c2c-link", "--watts", "-1"},
        {"crossbar", "--inputs", "5", "--outputs", "5", "--width", "64",
         "--load-ff", "-1000"},
        {"buffer", "--flits", "4294967296", "--bits", "64"},
    };
    for (const auto& args : rejected) {
        try {
            runModelQuery(args);
            ADD_FAILURE() << "accepted: " << args[0] << " " << args[1]
                          << " " << args[2];
        } catch (const std::invalid_argument& e) {
            EXPECT_EQ(std::string(e.what()).rfind("orion_models: ", 0),
                      0u)
                << e.what();
        }
    }
}

TEST(ModelCli, RejectsKeysTheComponentDoesNotTake)
{
    // Misspelt keys, keys of another component, and technology keys
    // the model never reads: each is an error naming the key.
    const std::vector<std::vector<std::string>> rejected = {
        {"buffer", "--flits", "4", "--bits", "64", "--read-prots", "3"},
        {"crossbar", "--inputs", "5", "--outputs", "5", "--width", "64",
         "--muxtree", "--csv"},
        {"link", "--length-um", "100", "--width", "64", "--freq", "1"},
        {"arbiter", "--requests", "4", "--bits", "64"},
        {"buffer", "--flits", "4", "--bits", "64", "--freq-ghz", "3"},
        {"c2c-link", "--vdd", "1.0"},
    };
    for (const auto& args : rejected) {
        try {
            runModelQuery(args);
            ADD_FAILURE() << "accepted: " << args[0];
        } catch (const std::invalid_argument& e) {
            EXPECT_NE(std::string(e.what()).find(" does not take --"),
                      std::string::npos)
                << e.what();
        }
    }
}

} // namespace
